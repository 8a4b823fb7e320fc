//! Property-based tests for the cache substrate.

use ccs_cache::{
    line_tag, CacheConfig, CompiledCache, IdealCache, NaiveLruStack, OrderStatStack, RefCache,
    StackDistanceModel,
};
use ccs_dag::AccessKind;
use proptest::prelude::*;

/// Generate a reference trace with a bounded number of distinct lines so that
/// reuse actually occurs.
fn trace_strategy(max_len: usize, distinct: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..distinct, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(log n) stack-distance structure agrees with the naive stack on
    /// arbitrary traces.
    #[test]
    fn stack_models_agree(trace in trace_strategy(400, 64)) {
        let mut naive = NaiveLruStack::new();
        let mut treap = OrderStatStack::new();
        for &line in &trace {
            prop_assert_eq!(naive.access(line), treap.access(line));
        }
        prop_assert_eq!(naive.num_lines(), treap.num_lines());
    }

    /// An ideal cache of capacity K hits exactly when the naive stack distance
    /// is < K (the stack-distance characterisation of LRU).
    #[test]
    fn ideal_cache_matches_stack_distance(
        trace in trace_strategy(300, 48),
        capacity in 1u64..64,
    ) {
        let mut stack = NaiveLruStack::new();
        let mut cache = IdealCache::new(capacity, 64);
        for &line in &trace {
            let d = stack.access(line * 64);
            let hit = cache.access_line(line * 64, AccessKind::Read);
            let expect = matches!(d, Some(d) if d < capacity);
            prop_assert_eq!(hit, expect);
        }
    }

    /// LRU inclusion: for the same trace a larger ideal cache never misses
    /// more than a smaller one.
    #[test]
    fn ideal_cache_inclusion(trace in trace_strategy(300, 100)) {
        let mut c8 = IdealCache::new(8, 64);
        let mut c32 = IdealCache::new(32, 64);
        for &line in &trace {
            c8.access_line(line * 64, AccessKind::Read);
            c32.access_line(line * 64, AccessKind::Read);
        }
        prop_assert!(c32.stats().misses <= c8.stats().misses);
    }

    /// The production cache, fully associative, is equivalent to the ideal
    /// LRU cache of the same capacity — the model the paper's bounds use.
    #[test]
    fn fully_assoc_setassoc_equals_ideal(trace in trace_strategy(300, 80)) {
        let lines = 16u64;
        let cfg = CacheConfig::fully_associative(lines * 64, 64, 1);
        let mut fa = CompiledCache::new(cfg.num_sets(), cfg.associativity);
        let mut ideal = IdealCache::new(lines, 64);
        for &line in &trace {
            let h1 = fa.access_compiled(0, line_tag(line as u32), false);
            let h2 = ideal.access_line(line * 64, AccessKind::Read);
            prop_assert_eq!(h1, h2);
        }
    }

    /// Production-cache invariants: hits + misses = accesses, the number of
    /// resident lines never exceeds the capacity, and every miss either
    /// fills an empty way or evicts exactly one line.  The evictions are
    /// counted from the spec's per-access outcomes (line id `i` is line
    /// address `i * 64`, set `i % sets`), not read back from the counter
    /// under test.
    #[test]
    fn setassoc_counters_consistent(
        trace in trace_strategy(400, 200),
        assoc_pow in 0u32..3,
        sets_pow in 0u32..3,
    ) {
        let assoc = 1 << assoc_pow;
        let sets = 1u64 << sets_pow;
        let cfg = CacheConfig::new(sets * assoc as u64 * 64, 64, assoc, 1);
        let mut c = CompiledCache::new(sets, assoc);
        let mut spec = RefCache::new(cfg);
        let mut evictions = 0u64;
        for &line in &trace {
            let hit = c.access_compiled((line % sets) as u32, line_tag(line as u32), false);
            let out = spec.access_line(line * 64, AccessKind::Read);
            prop_assert_eq!(hit, out.hit);
            if out.evicted.is_some() {
                evictions += 1;
            }
            prop_assert!(c.resident_lines() as u64 <= cfg.num_lines());
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, trace.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.evictions, evictions);
        prop_assert_eq!(
            s.misses,
            evictions + c.resident_lines() as u64
        );
    }

    /// Doubling associativity at fixed capacity never increases misses for
    /// these LRU caches when the trace has no conflict-free structure --
    /// weaker check: the fully associative cache never misses more than any
    /// set-associative cache of the same capacity.
    #[test]
    fn full_assoc_no_worse_than_set_assoc(trace in trace_strategy(300, 60)) {
        let capacity = 16 * 64u64;
        let sa_cfg = CacheConfig::new(capacity, 64, 2, 1);
        let fa_cfg = CacheConfig::fully_associative(capacity, 64, 1);
        let mut sa = CompiledCache::new(sa_cfg.num_sets(), sa_cfg.associativity);
        let mut fa = CompiledCache::new(fa_cfg.num_sets(), fa_cfg.associativity);
        let sets = sa_cfg.num_sets();
        for &line in &trace {
            sa.access_compiled((line % sets) as u32, line_tag(line as u32), false);
            fa.access_compiled(0, line_tag(line as u32), false);
        }
        // Belady anomaly does not apply to LRU with full associativity vs
        // set-partitioned LRU *in general*, but for uniformly random traces
        // of this size it holds with overwhelming probability; treat a
        // violation larger than a small slack as a bug.
        prop_assert!(fa.stats().misses <= sa.stats().misses + trace.len() as u64 / 10);
    }
}

#[test]
fn treap_handles_large_footprints() {
    // One deterministic large-footprint run to exercise arena growth.
    let mut treap = OrderStatStack::with_capacity(1 << 16);
    let mut naive_misses = 0u64;
    for i in 0..200_000u64 {
        let line = (i * 2654435761) % 50_000;
        if treap.access(line).is_none() {
            naive_misses += 1;
        }
    }
    assert_eq!(naive_misses, treap.num_lines() as u64);
    assert_eq!(treap.num_lines(), 50_000);
}
