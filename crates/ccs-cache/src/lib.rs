//! Cache and memory models for the CCS (constructive cache sharing)
//! reproduction of Chen et al., SPAA 2007.
//!
//! This crate provides the storage-hierarchy substrate used by the CMP
//! simulator ([`ccs-sim`](../ccs_sim/index.html)) and by the working-set
//! profiler ([`ccs-profile`](../ccs_profile/index.html)):
//!
//! * [`CacheConfig`] / [`MemoryConfig`] — geometry and timing (Table 1);
//! * [`CompiledCache`] — the set-associative, true-LRU, write-back cache
//!   the simulator's private L1s, shared L2s and L3 run on, probed by
//!   `(set, u32 tag)` pairs precompiled from dense line ids so the hot loop
//!   never touches an address;
//! * [`RefCache`] — the executable spec of that cache (the seed's
//!   timestamp-LRU model), run by the reference engine and checked against
//!   `CompiledCache` probe for probe;
//! * [`IdealCache`] — fully-associative LRU cache used by the analytical
//!   results (Theorem 3.1) and the profiler;
//! * [`OrderStatStack`], [`NaiveLruStack`] — LRU stack-distance models;
//!   `OrderStatStack` is the paper's *LruTree* structure with `O(log n)`
//!   per-reference cost, `NaiveLruStack` its `O(n)` oracle;
//! * [`MainMemory`] — off-chip latency + bounded-bandwidth model.
//!
//! # Example
//!
//! A probe sequence on the compiled cache, with line id `i` in set
//! `i % num_sets`:
//!
//! ```
//! use ccs_cache::{line_tag, CacheConfig, CompiledCache};
//!
//! // 4 KB, 2-way, 64 B lines: 32 sets.
//! let cfg = CacheConfig::new(4 * 1024, 64, 2, 1);
//! let mut l1 = CompiledCache::new(cfg.num_sets(), cfg.associativity);
//! assert!(!l1.access_compiled(0, line_tag(0), false)); // cold miss
//! assert!(l1.access_compiled(0, line_tag(0), false));
//! assert!(!l1.access_compiled(0, line_tag(32), true)); // same set, new line
//! assert!(!l1.access_compiled(0, line_tag(64), false)); // evicts line 0
//! assert!(!l1.contains_compiled(0, line_tag(0)));
//! assert_eq!(l1.stats().misses, 3);
//! assert_eq!(l1.stats().evictions, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiled;
pub mod config;
pub mod ideal;
pub mod memory;
pub mod reference;
pub mod stack;
pub mod stats;

pub use compiled::{line_tag, CompiledCache};
pub use config::{CacheConfig, MemoryConfig};
pub use ideal::IdealCache;
pub use memory::{MainMemory, MemoryStats};
pub use reference::{AccessOutcome, RefCache};
pub use stack::{NaiveLruStack, OrderStatStack, StackDistanceModel};
pub use stats::CacheStats;
