//! Seeded input generators.  Every input of a run — sweep definitions and
//! the serve request stream — is a pure function of `--seed`; the program
//! under test only ever sees the generated specs.

use ccs_sim::CmpConfig;

/// SplitMix64: tiny, fast, and stable across releases (unlike a library
/// RNG whose stream may change), so a seed names the same inputs forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x05ee_d0fc_c5b3_c4d1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The paper's three workloads plus the §5.5 extras, each with the one size
/// parameter the generators draw and its choices.  The choices bracket the
/// registry's own default size at [`SWEEP_SCALE`] (0.5×–1.5×), except
/// `hashjoin`: its registry default is clamped to at least 1 MiB, which
/// would make it cost ten times any other workload and dominate every
/// sweep, so it is drawn around a quarter of that instead.
pub const WORKLOAD_SIZES: [(&str, &str, &[u64]); 6] = [
    ("lu", "n", &[64, 128]),
    ("hashjoin", "build", &[196_608, 262_144, 327_680]),
    ("mergesort", "n", &[16_384, 24_576, 32_768, 49_152]),
    ("quicksort", "n", &[16_384, 32_768, 49_152]),
    ("matmul", "n", &[64, 128]),
    ("heat", "rows", &[96, 128, 160]),
];

/// Scale divisor of every generated sweep and request.
pub const SWEEP_SCALE: u64 = 1024;

/// One seeded workload spec string, e.g. `"mergesort:n=24576"`.
fn workload_spec(rng: &mut Rng, which: usize) -> String {
    let (name, param, sizes) = WORKLOAD_SIZES[which];
    format!("{name}:{param}={}", rng.pick(sizes))
}

/// One design point, described by the generator and resolved into a
/// [`CmpConfig`] by the program's own constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// The Table-2 default configuration with this many cores.
    Default(usize),
    /// A many-core machine in 32-core clusters with a shared L3 twice the
    /// aggregate L2 (the scaling-profile topology).
    ClusteredL3(usize),
    /// The default configuration at `cores` with the L2 hit time and the
    /// memory latency overridden (the fig. 4 / fig. 5 axes).
    Latency { cores: usize, l2_hit: u64, mem: u64 },
}

impl Point {
    pub fn config(self) -> CmpConfig {
        match self {
            Point::Default(cores) => {
                CmpConfig::default_with_cores(cores).expect("Table-2 core count")
            }
            Point::ClusteredL3(cores) => {
                let flat = CmpConfig::many_core(cores);
                let l3_mb = (flat.l2.capacity >> 20) * 2;
                flat.clustered(cores / 32).with_l3_mb(l3_mb)
            }
            Point::Latency { cores, l2_hit, mem } => {
                let base = CmpConfig::default_with_cores(cores).expect("Table-2 core count");
                let base = if l2_hit == base.l2.hit_latency {
                    base
                } else {
                    base.with_l2_hit_latency(l2_hit)
                };
                base.with_memory_latency(mem)
            }
        }
    }
}

/// One generated sweep: workload specs × design points, PDF and WS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepDef {
    pub workloads: Vec<String>,
    pub points: Vec<Point>,
}

/// `sweep_cold` draws one Table-2 point from each core-count stratum and
/// one clustered many-core L3 point, so sweeps are alike in cost and a
/// run's figures do not hinge on a lucky draw.
pub const COLD_SMALL_CORES: [usize; 3] = [1, 2, 4];
pub const COLD_LARGE_CORES: [usize; 3] = [8, 16, 32];
pub const COLD_MANY_CORES: [usize; 3] = [64, 128, 256];

/// Every workload at a seeded size.
fn all_workloads(rng: &mut Rng) -> Vec<String> {
    (0..WORKLOAD_SIZES.len())
        .map(|w| workload_spec(rng, w))
        .collect()
}

/// `sweep_cold`: `n` sweeps, each over every workload at a seeded size ×
/// a seeded small and large Table-2 point and a clustered many-core L3
/// point.
pub fn cold_sweeps(seed: u64, n: usize) -> Vec<SweepDef> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| SweepDef {
            workloads: all_workloads(&mut rng),
            points: vec![
                Point::Default(rng.pick(&COLD_SMALL_CORES)),
                Point::Default(rng.pick(&COLD_LARGE_CORES)),
                Point::ClusteredL3(rng.pick(&COLD_MANY_CORES)),
            ],
        })
        .collect()
}

/// Memory latencies of the single-core (replayable) grid and the two axes
/// of the 8-core (fallback) grid of `sweep_latency`.
pub const LAT_SINGLE_MEM: [u64; 6] = [100, 300, 500, 700, 900, 1100];
pub const LAT_GRID_L2_HIT: [u64; 2] = [7, 19];
pub const LAT_GRID_MEM: [u64; 2] = [100, 700];
pub const LAT_GRID_CORES: usize = 8;

/// `sweep_latency`: `n` sweeps, each over every workload at a seeded size ×
/// the single-core memory-latency grid plus the 8-core L2-hit × memory
/// grid.
pub fn latency_sweeps(seed: u64, n: usize) -> Vec<SweepDef> {
    let mut rng = Rng::new(seed ^ 0x1a7e);
    (0..n)
        .map(|_| {
            let workloads = all_workloads(&mut rng);
            let single_hit = CmpConfig::default_with_cores(1)
                .expect("1-core default")
                .l2
                .hit_latency;
            let mut points: Vec<Point> = LAT_SINGLE_MEM
                .iter()
                .map(|&mem| Point::Latency {
                    cores: 1,
                    l2_hit: single_hit,
                    mem,
                })
                .collect();
            for &l2_hit in &LAT_GRID_L2_HIT {
                for &mem in &LAT_GRID_MEM {
                    points.push(Point::Latency {
                        cores: LAT_GRID_CORES,
                        l2_hit,
                        mem,
                    });
                }
            }
            SweepDef { workloads, points }
        })
        .collect()
}

/// One serve request shape: a workload spec and 1–3 core counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    pub workload: String,
    pub cores: Vec<usize>,
}

/// Core counts a request draws its 1–3 points from.
pub const SERVE_CORES: [usize; 4] = [1, 2, 4, 8];
/// Zipf exponent of shape popularity.
pub const ZIPF_S: f64 = 1.9;
/// At most this many sizes per workload in the request universe.
pub const SERVE_SIZES: u64 = 256;
/// Request sizes: a quarter to a half of the sweep sizes, so a miss costs a
/// few milliseconds of engine time and store hits dominate the run.
/// `(workload, parameter, smallest, largest)`; LU and Matmul need a power
/// of two and take their smallest sweep size.
pub const SERVE_RANGES: [(&str, &str, u64, u64); 6] = [
    ("lu", "n", 64, 64),
    ("hashjoin", "build", 65_536, 131_072),
    ("mergesort", "n", 4_096, 16_384),
    ("quicksort", "n", 4_096, 16_384),
    ("matmul", "n", 64, 64),
    ("heat", "rows", 32, 96),
];

/// Up to [`SERVE_SIZES`] evenly spaced sizes in `lo..=hi`.
fn serve_sizes(lo: u64, hi: u64) -> Vec<u64> {
    let mut out: Vec<u64> = (0..SERVE_SIZES)
        .map(|k| lo + (hi - lo) * k / (SERVE_SIZES - 1))
        .collect();
    out.dedup();
    out
}

/// Core-count subsets a request may ask for: every non-empty subset of at
/// most three [`SERVE_CORES`].
pub fn core_subsets() -> Vec<Vec<usize>> {
    (1u32..16)
        .filter(|mask| mask.count_ones() <= 3)
        .map(|mask| {
            (0..4)
                .filter(|bit| mask & (1 << bit) != 0)
                .map(|bit| SERVE_CORES[bit])
                .collect()
        })
        .collect()
}

/// The workload specs requests draw from: every workload × request size.
pub fn serve_specs() -> Vec<String> {
    SERVE_RANGES
        .iter()
        .flat_map(|&(name, param, lo, hi)| {
            serve_sizes(lo, hi)
                .into_iter()
                .map(move |size| format!("{name}:{param}={size}"))
        })
        .collect()
}

/// The fixed universe of request shapes, spec-major: shape
/// `spec * core_subsets().len() + subset`.  Seed-independent.
pub fn shape_universe() -> Vec<Shape> {
    let subsets = core_subsets();
    serve_specs()
        .into_iter()
        .flat_map(|workload| {
            subsets.iter().map(move |cores| Shape {
                workload: workload.clone(),
                cores: cores.clone(),
            })
        })
        .collect()
}

/// The request stream of `serve_mixed`.  Request `i` is an index into
/// [`shape_universe`] and a pure function of the seed and `i`, so the
/// stream never runs out however fast the daemon serves.  The workload spec
/// is Zipf-popular (exponent [`ZIPF_S`]) over a seeded ranking of
/// [`serve_specs`]; the core subset is uniform, so what one request costs
/// does not hinge on which spec the seed made popular.  The popular head is
/// soon served from the store; the long tail keeps a steady stream of
/// first-seen shapes.
pub struct RequestStream {
    seed: u64,
    ranking: Vec<usize>,
    cdf: Vec<f64>,
    subsets: usize,
}

impl RequestStream {
    pub fn new(seed: u64) -> RequestStream {
        let specs = serve_specs().len();
        let mut rng = Rng::new(seed ^ 0x5e7e);
        let mut ranking: Vec<usize> = (0..specs).collect();
        for i in (1..specs).rev() {
            ranking.swap(i, rng.below(i + 1));
        }
        let mut total = 0.0;
        let cdf = (0..specs)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        RequestStream {
            seed,
            ranking,
            cdf,
            subsets: core_subsets().len(),
        }
    }

    pub fn get(&self, i: usize) -> usize {
        let mut rng = Rng::new(self.seed ^ (i as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.unit() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.ranking[rank] * self.subsets + rng.below(self.subsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sweeps_and_requests() {
        assert_eq!(cold_sweeps(7, 50), cold_sweeps(7, 50));
        assert_eq!(latency_sweeps(7, 50), latency_sweeps(7, 50));
        let first = |seed| -> Vec<usize> {
            let stream = RequestStream::new(seed);
            (0..500).map(|i| stream.get(i)).collect()
        };
        assert_eq!(first(7), first(7));
    }

    #[test]
    fn different_seed_different_sweeps_and_requests() {
        assert_ne!(cold_sweeps(7, 50), cold_sweeps(8, 50));
        assert_ne!(latency_sweeps(7, 50), latency_sweeps(8, 50));
        let first = |seed| -> Vec<usize> {
            let stream = RequestStream::new(seed);
            (0..500).map(|i| stream.get(i)).collect()
        };
        assert_ne!(first(7), first(8));
    }

    #[test]
    fn generated_points_resolve_to_valid_configs() {
        for sweep in cold_sweeps(3, 20).iter().chain(&latency_sweeps(3, 5)) {
            for point in &sweep.points {
                let config = point.config();
                assert_eq!(config.num_cores % config.clusters, 0);
            }
        }
    }

    #[test]
    fn request_stream_is_skewed() {
        let u = shape_universe().len();
        let stream = RequestStream::new(1);
        let n = 5000;
        let mut counts = vec![0usize; u];
        for i in 0..n {
            counts[stream.get(i)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The ten most popular shapes carry a large share of the traffic.
        assert!(counts[..10].iter().sum::<usize>() * 4 > n);
    }
}
