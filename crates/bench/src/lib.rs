//! # iss-bench — the `iss` scenario CLI, CI gates and benchmarks
//!
//! The `iss` binary is the one front door: `iss run <spec-or-figure>`
//! executes any scenario file or built-in figure sweep ([`scenarios`])
//! through the generic scenario engine and prints the views its points
//! call for, `iss validate` checks spec files without simulating, `iss
//! lint` analyzes them statically ([`spec`]), `iss list` names what is
//! available. `table1` prints the simulated machine's configuration; the
//! gate binaries diff against the files under `ci/` ([`gates`]); the
//! Criterion benches under `benches/` measure the host-side cost of
//! interval vs detailed simulation (the quantity behind Figures 9 and 10).
//!
//! The instruction budget of the built-in sweeps is controlled by the
//! `ISS_EXPERIMENT_SCALE` environment variable: `quick` (default for CI
//! smoke runs), `full` (the paper-style runs), or a number of instructions
//! per benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod scenarios;
pub mod spec;

/// The subset of SPEC benchmarks the built-in sweeps use unless asked for
/// `--all-benchmarks` (one representative per behaviour class).
pub const SPEC_QUICK: [&str; 6] = ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"];

/// The subset of PARSEC benchmarks used for quick runs.
pub const PARSEC_QUICK: [&str; 4] = ["blackscholes", "canneal", "fluidanimate", "vips"];

/// Core counts swept by the multi-core figures.
pub const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scale_parses_known_values() {
        // The environment is not modified here (tests may run concurrently);
        // only the default path is exercised.
        let s = iss_sim::env::EXPERIMENT_SCALE.get();
        assert!(s.spec_length > 0 && s.parsec_length > 0);
    }

    #[test]
    fn quick_subsets_exist_in_catalog() {
        for b in SPEC_QUICK {
            assert!(iss_trace::catalog::spec_profile(b).is_some(), "{b} missing");
        }
        for b in PARSEC_QUICK {
            assert!(
                iss_trace::catalog::parsec_profile(b).is_some(),
                "{b} missing"
            );
        }
    }
}
