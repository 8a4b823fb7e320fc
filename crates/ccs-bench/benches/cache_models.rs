//! Throughput of the cache models used by the CMP simulator.

use ccs_cache::{line_tag, CacheConfig, CompiledCache, IdealCache};
use ccs_dag::AccessKind;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};

/// Dense line ids of a pseudo-random trace over `distinct` lines.
fn make_ids(len: usize, distinct: u64) -> Vec<u32> {
    let mut x: u64 = 0xBEEF;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % distinct) as u32
        })
        .collect()
}

/// Benchmark `CompiledCache` at `cfg`'s geometry.  The `(set, tag)` pairs
/// are resolved up front, as the simulator's precompiled lanes are.
fn bench_compiled(group: &mut BenchmarkGroup<'_>, name: &str, cfg: CacheConfig, ids: &[u32]) {
    let sets = cfg.num_sets();
    let probes: Vec<(u32, u32)> = ids
        .iter()
        .map(|&id| ((u64::from(id) % sets) as u32, line_tag(id)))
        .collect();
    group.bench_function(name, |b| {
        b.iter(|| {
            let mut cache = CompiledCache::new(sets, cfg.associativity);
            let mut misses = 0u64;
            for &(set, tag) in &probes {
                if !cache.access_compiled(set, tag, false) {
                    misses += 1;
                }
            }
            misses
        })
    });
}

fn bench_cache_models(c: &mut Criterion) {
    let ids = make_ids(200_000, 64 * 1024);
    let mut group = c.benchmark_group("cache_models");
    group.throughput(Throughput::Elements(ids.len() as u64));

    let l2 = CacheConfig::new(8 << 20, 128, 16, 13);
    bench_compiled(&mut group, "compiled_l2_8mb_16way", l2, &ids);
    bench_compiled(
        &mut group,
        "compiled_l1_64kb_4way",
        CacheConfig::paper_l1(),
        &ids,
    );
    group.bench_function("ideal_lru_8mb", |b| {
        b.iter(|| {
            let mut cache = IdealCache::with_bytes(8 << 20, 128);
            let mut misses = 0u64;
            for &id in &ids {
                if !cache.access_line(u64::from(id) * 128, AccessKind::Read) {
                    misses += 1;
                }
            }
            misses
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache_models
}
criterion_main!(benches);
