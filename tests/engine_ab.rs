//! The PR-level A/B acceptance property: for **every registered workload**,
//! both schedulers, and core counts covering all four coherence paths of
//! the event engine (`p == 1` no-directory, the single-word directory,
//! the hierarchical sharer masks past 64 cores, and the
//! `> MAX_DIRECTORY_CORES` broadcast fallback), the id-native event-driven
//! engine and the retained reference cycle-stepper must report
//! **byte-identical** `SimResult`s.  A 256-core clustered-L2 + shared-L3
//! topology (DESIGN.md §12) rides the same cross-product.
//!
//! This is the cross-product the bench harness's A/B throughput numbers
//! stand on: a faster engine only counts if the metrics cannot move.  The
//! batch engine rides the same cross-product: at each point it simulates a
//! three-way latency group containing the point's exact configuration, and
//! that member must again be byte-identical — replayed at one core, via
//! the fallback everywhere else.

use ccs_dag::Dag;
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_batch, simulate_engine, CmpConfig, SimEngine, MAX_DIRECTORY_CORES};
use ccs_workloads::{BuildCtx, WorkloadRegistry};

/// A small CMP whose caches stay fixed while the core count sweeps the
/// coherence paths; 256 cores exercises the hierarchical sharer masks and
/// `MAX_DIRECTORY_CORES + 1` steps into the broadcast fallback.
fn config(cores: usize) -> CmpConfig {
    let mut cfg = CmpConfig::default_with_cores(16).expect("default config exists");
    cfg.num_cores = cores;
    cfg.name = format!("ab-{cores}");
    cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, 1);
    cfg.l2 = ccs_cache::CacheConfig::new(64 * 1024, 128, 16, 13);
    cfg
}

/// One `#[test]` per registered workload, so libtest runs them in
/// parallel; `registry_workloads_are_all_covered` keeps the list honest.
macro_rules! per_workload {
    ($($name:ident),* $(,)?) => {
        const COVERED: &[&str] = &[$(stringify!($name)),*];
        $(
            mod $name {
                #[test]
                fn metrics_identical_across_engines() {
                    super::check_workload(stringify!($name));
                }
            }
        )*
    };
}

per_workload!(lu, hashjoin, mergesort, quicksort, matmul, heat);

#[test]
fn registry_workloads_are_all_covered() {
    let mut registered = WorkloadRegistry::global().names();
    let mut covered: Vec<String> = COVERED.iter().map(|s| s.to_string()).collect();
    registered.sort();
    covered.sort();
    assert_eq!(
        covered, registered,
        "every registered workload needs its own engine A/B test"
    );
}

fn check_workload(name: &str) {
    let registry = WorkloadRegistry::global();
    // Deeply scaled-down inputs: the reference engine pays one heap
    // round-trip per micro-step, so the sweep must stay small to keep the
    // test quick while still covering every workload's access pattern.
    let scale = 2048;
    let wide = MAX_DIRECTORY_CORES + 1;
    let ctx = BuildCtx::new(scale, 64 * 1024, 4);
    let comp = registry.build(name, &ctx).unwrap_or_else(|e| panic!("{e}"));
    let dag = Dag::from_computation(&comp);
    for cores in [1usize, 2, 4, 256, wide] {
        let cfg = config(cores);
        // A latency group around the A/B point: the batch engine must
        // reproduce the event result for the point itself while also
        // serving the neighbouring latencies.
        let group = [
            cfg.clone(),
            cfg.clone().with_l2_hit_latency(7),
            cfg.clone().with_memory_latency(900),
        ];
        for sched in ["pdf", "ws"] {
            let fast = simulate_engine(&comp, &cfg, sched, SimEngine::EventDriven);
            let slow = simulate_engine(&comp, &cfg, sched, SimEngine::Reference);
            assert_eq!(fast, slow, "{name} / {sched} / {cores} cores");
            let batch = simulate_batch(&comp, &dag, &group, &SchedulerSpec::new(sched));
            assert_eq!(batch.replayed, if cores == 1 { 2 } else { 0 });
            assert_eq!(
                batch.results[0], fast,
                "{name} / {sched} / {cores} cores (batch)"
            );
        }
    }
    // The three-level topology (DESIGN.md §12): 256 cores in eight 32-core
    // L2 clusters behind a shared L3.  Still byte-identical across engines;
    // never replayed by the batch engine (the tape records L2 outcomes
    // only), but the fallback path must agree too.
    let clustered = config(256).clustered(8).with_l3_mb(1);
    for sched in ["pdf", "ws"] {
        let fast = simulate_engine(&comp, &clustered, sched, SimEngine::EventDriven);
        let slow = simulate_engine(&comp, &clustered, sched, SimEngine::Reference);
        assert_eq!(fast, slow, "{name} / {sched} / 256 cores clustered+L3");
        assert_eq!(fast.clusters, 8);
        assert_eq!(fast.l3.accesses, fast.l2.misses, "L3 sits below the L2s");
        let group = [
            clustered.clone(),
            clustered.clone().with_memory_latency(900),
        ];
        let batch = simulate_batch(&comp, &dag, &group, &SchedulerSpec::new(sched));
        assert_eq!(batch.replayed, 0, "clustered+L3 groups never replay");
        assert_eq!(
            batch.results[0], fast,
            "{name} / {sched} / clustered+L3 (batch)"
        );
    }
}
