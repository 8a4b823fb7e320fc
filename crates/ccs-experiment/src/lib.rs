//! The unified experiment layer for the CCS reproduction — the canonical
//! entry point for running PDF-vs-WS comparisons across CMP design points.
//!
//! The paper's contribution is a *comparison harness*: schedulers swept over
//! workloads and design points, reported as figures.  This crate packages
//! that harness as a composable API:
//!
//! * [`Experiment`] — a builder describing a sweep (workloads × schedulers ×
//!   configurations, plus a scale divisor), whose [`Experiment::run`] fans
//!   the cross-product into measurements — across the `ccs-runtime`
//!   fork-join pool when [`Experiment::parallelism`] is raised, with
//!   deterministic record order either way;
//! * [`WorkloadSpec`] — a parseable "which workload" value
//!   (`"mergesort"`, `"matmul:n=512"`,
//!   `"heat:rows=1024,cols=1024,steps=8"`) resolved through the open
//!   [`WorkloadRegistry`](ccs_workloads::WorkloadRegistry), plus fixed
//!   caller-built computations;
//! * [`RunRecord`] / [`Report`] — one record per measured point, aggregated
//!   into a report with JSON/CSV/TSV emission and parsing
//!   ([`Report::to_json`] / [`Report::from_json`]);
//! * [`build_cache`] — the byte-bounded cache of built registry
//!   computations (and, through their memoisation, of every compiled line
//!   stream and geometry lane); experiments share the process default
//!   across sweeps and repeat trials unless handed their own
//!   ([`Experiment::build_cache`]);
//! * [`canon`] — canonical run-point keys and their stable FNV-1a hash:
//!   the identity a [`RunRecord`] is a deterministic function of;
//! * [`ResultStore`] — the durable on-disk record memo keyed by those
//!   hashes, extending the build cache across processes and restarts (the
//!   `ccs-serve` daemon's persistent layer);
//! * [`Options`] — the command-line harness the experiment binaries share;
//! * [`json`] — the small self-contained JSON layer backing report
//!   serialisation (the offline stand-in for `serde_json`; see
//!   `shims/README.md`).
//!
//! Both axes are open: schedulers are identified by
//! [`SchedulerSpec`](ccs_sched::SchedulerSpec) registry names, and workloads
//! by [`WorkloadSpec`] registry names, so user-defined schedulers
//! (registered with
//! [`SchedulerRegistry::global`](ccs_sched::SchedulerRegistry::global)) and
//! user-defined workloads (registered with
//! [`WorkloadRegistry::global`](ccs_workloads::WorkloadRegistry::global))
//! participate in experiments exactly like the built-ins.
//!
//! # Quick start
//!
//! ```
//! use ccs_experiment::Experiment;
//! use ccs_sched::SchedulerKind;
//! use ccs_workloads::Benchmark;
//!
//! let report = Experiment::new(Benchmark::Mergesort)
//!     .cores(8)
//!     .scale(512)
//!     .schedulers([SchedulerKind::Pdf, SchedulerKind::WorkStealing])
//!     .run();
//!
//! // Machine-readable trajectory…
//! let json = report.to_json();
//! // …that parses back losslessly.
//! assert_eq!(ccs_experiment::Report::from_json(&json).unwrap(), report);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build_cache;
pub mod canon;
pub mod experiment;
pub mod json;
pub mod options;
pub mod report;
pub mod result_store;

pub use build_cache::BuildCache;
pub use experiment::{CoreSelection, Experiment, SweepPoint, WorkloadSpec};
pub use options::{Options, OptionsError};
pub use report::{Report, RunRecord};
pub use result_store::ResultStore;
