//! Canonical run-point keys and their stable hash.
//!
//! The persistent result store ([`crate::result_store`]) and the `ccs-serve`
//! daemon memoise completed [`RunRecord`](crate::RunRecord)s across requests
//! and process restarts.  That only works if two requests that *mean* the
//! same run produce the same key, however they were spelled: `"matmul:n=512"`
//! and a spec built with `with_param("n", "512")` must collide, and parameter
//! order must not matter.
//!
//! [`record_key`] therefore builds the key from *canonical* forms only:
//!
//! * the workload's [`label`](crate::WorkloadSpec::label) (parameters in
//!   sorted key order — the same string `parse → format` normalises to);
//! * the scheduler spec's `Display` form (`"pdf"`, `"ws-rand@7"`);
//! * every field of the (unscaled) [`CmpConfig`] — the config *name* is
//!   included because it appears verbatim in the record, so two configs
//!   with equal geometry but different names are different runs;
//! * the scale divisor, engine and baseline flag, which all shape the
//!   record bytes.
//!
//! [`key_hash`] maps a key to the 64-bit FNV-1a hash used as the on-disk
//! file name.  The full key string is stored *inside* the file, so a hash
//! collision is detected (and treated as a miss) rather than served.

use ccs_sched::SchedulerSpec;
use ccs_sim::{CmpConfig, SimEngine};

use crate::json::write_u64;

/// Version prefix of the key grammar.  Bump when the key composition
/// changes so stale store entries miss instead of mismatching.
/// `/2`: added the cluster count and the optional L3 to the config axes.
pub const KEY_VERSION: &str = "ccs-key/2";

/// The canonical key of one run record: one simulated
/// (workload, config, scale, engine, scheduler, baseline?) point.
///
/// Every record an [`Experiment`](crate::Experiment) produces is a
/// deterministic function of this key (schedulers are deterministic given
/// their spec — randomised ones carry their seed in the spec).  The engine
/// is normalised with [`SimEngine::canonical`]: the batch engine is the
/// event engine's metrics byte-for-byte, so batched and event runs share
/// one key (and therefore one store entry), while the reference engine —
/// kept deliberately distinct as the A/B foil — keeps its own.
pub fn record_key(
    workload_label: &str,
    config: &CmpConfig,
    scale: u64,
    engine: SimEngine,
    scheduler: &SchedulerSpec,
    baseline: bool,
) -> String {
    let mut key = key_head(workload_label, config, scale, engine);
    push_scheduler(&mut key, scheduler, baseline);
    key
}

/// The [`record_key`]s of one sweep point's records, one per scheduler in
/// order.  The scheduler-independent head of the key (workload, config,
/// scale, engine) is rendered once and shared.
pub fn record_keys<'s>(
    workload_label: &str,
    config: &CmpConfig,
    scale: u64,
    engine: SimEngine,
    schedulers: impl IntoIterator<Item = &'s SchedulerSpec>,
    baseline: bool,
) -> Vec<String> {
    let head = key_head(workload_label, config, scale, engine);
    schedulers
        .into_iter()
        .map(|scheduler| {
            let mut key = String::with_capacity(head.len() + 32);
            key.push_str(&head);
            push_scheduler(&mut key, scheduler, baseline);
            key
        })
        .collect()
}

/// Everything of a key up to the scheduler: the version, the workload, the
/// canonical form of the design point (every field that can influence a
/// simulation), the scale and the canonical engine, pipe-separated.
fn key_head(workload_label: &str, config: &CmpConfig, scale: u64, engine: SimEngine) -> String {
    let mut key = String::with_capacity(224 + workload_label.len() + config.name.len());
    key.push_str(KEY_VERSION);
    key.push_str("|workload=");
    key.push_str(workload_label);
    key.push_str("|config=");
    key.push_str(&config.name);
    push_field(&mut key, "|cores=", config.num_cores as u64);
    push_field(&mut key, "|clusters=", config.clusters as u64);
    // The technology's `Debug` name (`Nm90`, …), spelled from its size.
    push_field(
        &mut key,
        "|tech=Nm",
        u64::from(config.technology.nanometers()),
    );
    for (label, cache) in [
        ("|l1=", Some(&config.l1)),
        ("|l2=", Some(&config.l2)),
        ("|l3=", config.l3.as_ref()),
    ] {
        key.push_str(label);
        match cache {
            Some(cache) => {
                write_u64(&mut key, cache.capacity);
                push_field(&mut key, "/", cache.line_size);
                push_field(&mut key, "/", u64::from(cache.associativity));
                push_field(&mut key, "/", cache.hit_latency);
            }
            None => key.push_str("none"),
        }
    }
    push_field(&mut key, "|mem=", config.memory.latency);
    push_field(&mut key, "/", config.memory.service_interval);
    push_field(&mut key, "|scale=", scale);
    key.push_str("|engine=");
    key.push_str(engine.canonical().name());
    key
}

fn push_field(key: &mut String, label: &str, value: u64) {
    key.push_str(label);
    write_u64(key, value);
}

/// The key's tail: the scheduler spec's canonical `Display` form
/// (`name` or `name@seed`) and the baseline flag.
fn push_scheduler(key: &mut String, scheduler: &SchedulerSpec, baseline: bool) {
    key.push_str("|sched=");
    key.push_str(&scheduler.name);
    if let Some(seed) = scheduler.params.seed {
        push_field(key, "@", seed);
    }
    key.push_str(if baseline {
        "|baseline=1"
    } else {
        "|baseline=0"
    });
}

/// 64-bit FNV-1a over `key`'s bytes — the stable, dependency-free hash the
/// result store derives file names from ([`key_hash_hex`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// [`fnv1a64`] of a key string.
pub fn key_hash(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
}

/// The fixed-width hex spelling of [`key_hash`] — the result store's file
/// stem for this key.
pub fn key_hash_hex(key: &str) -> String {
    format!("{:016x}", key_hash(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// The key spelled with one `format!` per part — the reference for the
    /// byte layout that store file names are derived from.
    fn reference_key(
        workload_label: &str,
        config: &CmpConfig,
        scale: u64,
        engine: SimEngine,
        scheduler: &SchedulerSpec,
        baseline: bool,
    ) -> String {
        let l3 = match &config.l3 {
            Some(l3) => format!(
                "{}/{}/{}/{}",
                l3.capacity, l3.line_size, l3.associativity, l3.hit_latency
            ),
            None => "none".to_string(),
        };
        let config_key = format!(
            "config={}|cores={}|clusters={}|tech={:?}|l1={}/{}/{}/{}|l2={}/{}/{}/{}|l3={l3}|mem={}/{}",
            config.name,
            config.num_cores,
            config.clusters,
            config.technology,
            config.l1.capacity,
            config.l1.line_size,
            config.l1.associativity,
            config.l1.hit_latency,
            config.l2.capacity,
            config.l2.line_size,
            config.l2.associativity,
            config.l2.hit_latency,
            config.memory.latency,
            config.memory.service_interval,
        );
        format!(
            "{KEY_VERSION}|workload={workload_label}|{config_key}|scale={scale}|engine={}|sched={scheduler}|baseline={}",
            engine.canonical().name(),
            u8::from(baseline),
        )
    }

    #[test]
    fn keys_match_the_reference_spelling() {
        let schedulers = [
            SchedulerSpec::new("pdf"),
            SchedulerSpec::new("ws"),
            SchedulerSpec::new("ws-rand").with_seed(u64::MAX),
        ];
        let mut configs: Vec<CmpConfig> = [1, 2, 8, 32]
            .iter()
            .map(|&cores| CmpConfig::default_with_cores(cores).unwrap())
            .collect();
        configs.push(CmpConfig::default_with_cores(16).unwrap().with_l3_mb(4));
        let mut clustered = CmpConfig::default_with_cores(8).unwrap();
        clustered.clusters = 4;
        configs.push(clustered);
        for technology in [
            ccs_sim::Technology::Nm90,
            ccs_sim::Technology::Nm65,
            ccs_sim::Technology::Nm45,
            ccs_sim::Technology::Nm32,
        ] {
            let mut config = CmpConfig::default_with_cores(2).unwrap();
            config.technology = technology;
            configs.push(config);
        }
        for config in &configs {
            for engine in [
                SimEngine::EventDriven,
                SimEngine::Batch,
                SimEngine::Reference,
            ] {
                for baseline in [false, true] {
                    let label = "heat:cols=32,rows=64";
                    let keys = record_keys(label, config, 1024, engine, &schedulers, baseline);
                    assert_eq!(keys.len(), schedulers.len());
                    for (key, scheduler) in keys.iter().zip(&schedulers) {
                        let expected =
                            reference_key(label, config, 1024, engine, scheduler, baseline);
                        assert_eq!(key, &expected);
                        assert_eq!(
                            record_key(label, config, 1024, engine, scheduler, baseline),
                            expected
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equivalent_spellings_share_a_key() {
        let config = CmpConfig::default_with_cores(2).unwrap();
        let sched = SchedulerSpec::new("pdf");
        let a = WorkloadSpec::from("heat:rows=64,cols=32");
        let b = WorkloadSpec::registry("heat")
            .with_param("cols", "32")
            .with_param("rows", "64");
        assert_eq!(
            record_key(
                &a.label(),
                &config,
                64,
                SimEngine::EventDriven,
                &sched,
                true
            ),
            record_key(
                &b.label(),
                &config,
                64,
                SimEngine::EventDriven,
                &sched,
                true
            ),
        );
    }

    #[test]
    fn every_axis_separates_keys() {
        let config = CmpConfig::default_with_cores(2).unwrap();
        let base = record_key(
            "mergesort",
            &config,
            64,
            SimEngine::EventDriven,
            &SchedulerSpec::new("pdf"),
            true,
        );
        let variants = [
            record_key(
                "lu",
                &config,
                64,
                SimEngine::EventDriven,
                &SchedulerSpec::new("pdf"),
                true,
            ),
            record_key(
                "mergesort",
                &CmpConfig::default_with_cores(4).unwrap(),
                64,
                SimEngine::EventDriven,
                &SchedulerSpec::new("pdf"),
                true,
            ),
            record_key(
                "mergesort",
                &config,
                128,
                SimEngine::EventDriven,
                &SchedulerSpec::new("pdf"),
                true,
            ),
            record_key(
                "mergesort",
                &config,
                64,
                SimEngine::Reference,
                &SchedulerSpec::new("pdf"),
                true,
            ),
            record_key(
                "mergesort",
                &config,
                64,
                SimEngine::EventDriven,
                &SchedulerSpec::new("ws-rand").with_seed(7),
                true,
            ),
            record_key(
                "mergesort",
                &config,
                64,
                SimEngine::EventDriven,
                &SchedulerSpec::new("pdf"),
                false,
            ),
            // Same geometry, different config name: the name lands in the
            // record's `config` field, so it must separate keys too.
            {
                let mut renamed = config.clone();
                renamed.name = "renamed".to_string();
                record_key(
                    "mergesort",
                    &renamed,
                    64,
                    SimEngine::EventDriven,
                    &SchedulerSpec::new("pdf"),
                    true,
                )
            },
            // The three-level axes: cluster count and L3 geometry.
            {
                let mut clustered = config.clone();
                clustered.clusters = 2;
                record_key(
                    "mergesort",
                    &clustered,
                    64,
                    SimEngine::EventDriven,
                    &SchedulerSpec::new("pdf"),
                    true,
                )
            },
            {
                // Undo the builder's rename so only the L3 axis differs.
                let mut with_l3 = config.clone().with_l3_mb(1);
                with_l3.name = config.name.clone();
                record_key(
                    "mergesort",
                    &with_l3,
                    64,
                    SimEngine::EventDriven,
                    &SchedulerSpec::new("pdf"),
                    true,
                )
            },
        ];
        for v in &variants {
            assert_ne!(&base, v);
            assert_ne!(key_hash(&base), key_hash(v));
        }
        assert_eq!(key_hash_hex(&base).len(), 16);
        // The batch engine is NOT an axis: its records are the event
        // engine's byte-for-byte, so the keys collide by design and a
        // batched sweep hits the store entries an event sweep populated.
        assert_eq!(
            base,
            record_key(
                "mergesort",
                &config,
                64,
                SimEngine::Batch,
                &SchedulerSpec::new("pdf"),
                true,
            )
        );
    }
}
