//! Synthetic workload generators for the six benchmarks of the study.
//!
//! The paper drives its simulator with SPLASH-2 (FFT, LU, radix, Barnes-Hut),
//! PARSEC (fluidanimate) and a parallel kD-tree builder running under a
//! full-system simulator. This crate substitutes trace generators that
//! reproduce each application's data-structure layout, sharing pattern, phase
//! structure and region annotations — the properties the paper's analysis
//! attributes every traffic-waste effect to (see `DESIGN.md` §1 for the
//! substitution rationale and §7 for the scaled default input sizes).
//!
//! Each generator produces a [`Workload`]: a [`tw_types::RegionTable`]
//! describing the software-supplied region, Flex and bypass annotations, and
//! one [`tw_types::TraceOp`] stream per core.
//!
//! # Example
//!
//! ```
//! use tw_workloads::{fft::FftConfig, Workload};
//!
//! let wl: Workload = FftConfig::scaled().build(16);
//! assert_eq!(wl.cores(), 16);
//! assert!(wl.total_mem_ops() > 10_000);
//! assert!(wl.regions.len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes;
pub mod builder;
pub mod fft;
pub mod fluidanimate;
pub mod kdtree;
pub mod lu;
pub mod radix;
pub mod workload;

pub use builder::TraceBuilder;
pub use workload::{BenchmarkKind, Workload};

/// The error returned when asked to generate a benchmark kind that has no
/// fixed-input generator ([`BenchmarkKind::Custom`] comes from trace files,
/// [`BenchmarkKind::Synthesized`] from the seeded synthesizer).
fn no_generator(kind: BenchmarkKind) -> String {
    match kind {
        BenchmarkKind::Custom => {
            "custom workloads have no generator; replay them from a trace file".to_string()
        }
        BenchmarkKind::Synthesized => {
            "synthesized workloads have no fixed generator; build them from a seed \
             with the tw-scenarios synthesizer (or replay a saved trace)"
                .to_string()
        }
        other => unreachable!("{other} has a generator"),
    }
}

/// Builds the default (scaled) workload for a benchmark with `cores` cores.
///
/// The trace-only kinds ([`BenchmarkKind::Custom`],
/// [`BenchmarkKind::Synthesized`]) have no generator here, and a core count
/// the generator's input cannot be split over is refused; both are reported
/// as an error rather than a panic, so callers resolving a kind or a mesh
/// from user input can surface a diagnosable message.
pub fn build_scaled(kind: BenchmarkKind, cores: usize) -> Result<Workload, String> {
    match kind {
        BenchmarkKind::Fluidanimate => fluidanimate::FluidanimateConfig::scaled().try_build(cores),
        BenchmarkKind::Lu => lu::LuConfig::scaled().try_build(cores),
        BenchmarkKind::Fft => fft::FftConfig::scaled().try_build(cores),
        BenchmarkKind::Radix => radix::RadixConfig::scaled().try_build(cores),
        BenchmarkKind::Barnes => barnes::BarnesConfig::scaled().try_build(cores),
        BenchmarkKind::KdTree => kdtree::KdTreeConfig::scaled().try_build(cores),
        BenchmarkKind::Custom | BenchmarkKind::Synthesized => Err(no_generator(kind)),
    }
}

/// Builds a miniature workload for a benchmark, suitable for unit tests and
/// Criterion benches where run time matters more than fidelity.
///
/// The trace-only kinds ([`BenchmarkKind::Custom`],
/// [`BenchmarkKind::Synthesized`]) have no generator here and are reported as
/// an error rather than a panic (see [`build_scaled`]).
pub fn build_tiny(kind: BenchmarkKind, cores: usize) -> Result<Workload, String> {
    match kind {
        BenchmarkKind::Fluidanimate => fluidanimate::FluidanimateConfig::tiny().try_build(cores),
        BenchmarkKind::Lu => lu::LuConfig::tiny().try_build(cores),
        BenchmarkKind::Fft => fft::FftConfig::tiny().try_build(cores),
        BenchmarkKind::Radix => radix::RadixConfig::tiny().try_build(cores),
        BenchmarkKind::Barnes => barnes::BarnesConfig::tiny().try_build(cores),
        BenchmarkKind::KdTree => kdtree::KdTreeConfig::tiny().try_build(cores),
        BenchmarkKind::Custom | BenchmarkKind::Synthesized => Err(no_generator(kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_only_kinds_are_errors_not_panics() {
        for kind in [BenchmarkKind::Custom, BenchmarkKind::Synthesized] {
            let err = build_scaled(kind, 16).unwrap_err();
            assert!(err.contains("generator"), "{err}");
            assert!(build_tiny(kind, 16).is_err());
        }
        for kind in BenchmarkKind::ALL {
            assert!(build_tiny(kind, 16).is_ok(), "{kind} must generate");
        }
    }

    #[test]
    fn every_core_count_a_mesh_can_have_builds_or_is_named() {
        // Meshes run from 2x2 to 64 tiles; a generator either builds a
        // well-formed workload for the core count or says why not, never
        // panics (an FFT on a 9x8 mesh once aborted `plan run`).
        for kind in BenchmarkKind::ALL {
            for cores in [0, 1, 4, 6, 9, 12, 16, 24, 25, 32, 36, 48, 49, 56, 64, 72] {
                match build_tiny(kind, cores) {
                    Ok(wl) => {
                        assert_eq!(wl.cores(), cores, "{kind}");
                        wl.try_well_formed()
                            .unwrap_or_else(|e| panic!("{kind} x {cores}: {e}"));
                    }
                    Err(e) => assert!(
                        e.starts_with(kind.name()) && e.contains("core"),
                        "{kind} x {cores}: {e}"
                    ),
                }
            }
        }
        let err = build_scaled(BenchmarkKind::Fft, 72).unwrap_err();
        assert_eq!(err, "FFT: 32768 points do not divide evenly among 72 cores");
    }
}
