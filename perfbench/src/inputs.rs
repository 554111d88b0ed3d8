//! Seeded inputs: the only thing the program receives from the benchmark.
//!
//! `--seed 0` selects the generators' built-in seeds, so the cold matrix at
//! seed 0 is exactly the committed `BENCH_results.json` plan. Any other seed
//! is mixed into the `seed` field of the four seeded generators
//! (fluidanimate, radix, barnes, kD-tree); FFT and LU have no seed and are
//! the same at every seed. The seed also drives the serving request mix
//! through [`Rng`].

use denovo_waste::{ScaleProfile, WorkloadSet};
use std::time::Instant;
use tw_workloads::{
    barnes::BarnesConfig, fft::FftConfig, fluidanimate::FluidanimateConfig, kdtree::KdTreeConfig,
    lu::LuConfig, radix::RadixConfig, BenchmarkKind, Workload,
};

/// Input scale: `Scaled` is the paper reproduction's default; `Tiny` is the
/// smoke-test mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The scaled inputs `BENCH_results.json` is committed at.
    Scaled,
    /// Miniature inputs (seconds instead of minutes; no committed figures).
    Tiny,
}

impl Scale {
    /// The experiment layer's profile for this scale.
    pub fn profile(self) -> ScaleProfile {
        match self {
            Scale::Scaled => ScaleProfile::Scaled,
            Scale::Tiny => ScaleProfile::Tiny,
        }
    }

    /// Cores (mesh tiles) every generated workload is built for.
    pub fn cores(self) -> usize {
        self.profile().system().tiles()
    }
}

/// The generator seed for a benchmark seed: the built-in one at seed 0,
/// otherwise a mix of both.
pub fn generator_seed(builtin: u64, seed: u64) -> u64 {
    if seed == 0 {
        builtin
    } else {
        splitmix64(builtin ^ splitmix64(seed))
    }
}

/// Generates one benchmark's workload at `scale` for `seed`.
pub fn generate(kind: BenchmarkKind, scale: Scale, seed: u64) -> Workload {
    let tiny = scale == Scale::Tiny;
    let cores = scale.cores();
    macro_rules! seeded {
        ($cfg:ident) => {{
            let mut cfg = if tiny { $cfg::tiny() } else { $cfg::scaled() };
            cfg.seed = generator_seed(cfg.seed, seed);
            cfg.build(cores)
        }};
    }
    match kind {
        BenchmarkKind::Fluidanimate => seeded!(FluidanimateConfig),
        BenchmarkKind::Radix => seeded!(RadixConfig),
        BenchmarkKind::Barnes => seeded!(BarnesConfig),
        BenchmarkKind::KdTree => seeded!(KdTreeConfig),
        BenchmarkKind::Fft if tiny => FftConfig::tiny().build(cores),
        BenchmarkKind::Fft => FftConfig::scaled().build(cores),
        BenchmarkKind::Lu if tiny => LuConfig::tiny().build(cores),
        BenchmarkKind::Lu => LuConfig::scaled().build(cores),
        BenchmarkKind::Custom | BenchmarkKind::Synthesized => {
            unreachable!("the benchmark only generates the six paper benchmarks")
        }
    }
}

/// Generates `kinds` as provided workloads named after their benchmark, and
/// returns the set with the generation time in milliseconds.
pub fn provided(kinds: &[BenchmarkKind], scale: Scale, seed: u64) -> (WorkloadSet, f64) {
    let mut set = WorkloadSet::new();
    let mut gen_ms = 0.0;
    for &kind in kinds {
        let t = Instant::now();
        let wl = generate(kind, scale, seed);
        gen_ms += ms(t);
        set.insert(kind.name(), wl);
    }
    (set, gen_ms)
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's own deterministic generator (splitmix64), used for the
/// serving request order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from the generator seeds by
    /// `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a benchmark's generator takes a seed.
    fn is_seeded(kind: BenchmarkKind) -> bool {
        matches!(
            kind,
            BenchmarkKind::Fluidanimate
                | BenchmarkKind::Radix
                | BenchmarkKind::Barnes
                | BenchmarkKind::KdTree
        )
    }

    fn digest(kind: BenchmarkKind, seed: u64) -> tw_types::Digest {
        generate(kind, Scale::Tiny, seed)
            .content_digest()
            .expect("generated workloads encode")
    }

    #[test]
    fn the_seed_drives_exactly_the_seeded_generators() {
        for kind in BenchmarkKind::ALL {
            // The same seed gives the same inputs.
            assert_eq!(digest(kind, 7), digest(kind, 7), "{kind}");
            let moved = digest(kind, 7) != digest(kind, 8);
            assert_eq!(moved, is_seeded(kind), "{kind}: seed 7 vs 8");
        }
    }

    #[test]
    fn seed_zero_is_the_built_in_input() {
        for kind in BenchmarkKind::ALL {
            let builtin = tw_workloads::build_tiny(kind, 16).expect("paper benchmark");
            assert_eq!(
                digest(kind, 0),
                builtin
                    .content_digest()
                    .expect("generated workloads encode"),
                "{kind}"
            );
        }
    }

    #[test]
    fn shuffles_repeat_per_seed() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
