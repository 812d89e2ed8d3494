//! Built-in sweeps: every figure of the paper as a named, ready-to-run
//! [`SweepSpec`].
//!
//! `iss run <name>` resolves names through [`builtin_sweep`]; `iss list`
//! prints [`BUILTINS`]. Each entry at the quick benchmark subsets is
//! mirrored by a checked-in scenario file under `examples/scenarios/` (a
//! regression test asserts the two stay equal, so the spec files cannot
//! silently drift from the Rust constructors).

use iss_sim::experiments::{
    self, default_hybrid_policies, default_sampling_specs, fig4_variants, ExperimentScale,
};
use iss_sim::SweepSpec;
use iss_trace::catalog::{PARSEC, SPEC_CPU2000};

use crate::{CORE_COUNTS, PARSEC_QUICK, SPEC_QUICK};

/// The benchmark set of Figure 6 (mirrors `iss_trace::catalog`).
pub const FIG6_BENCHMARKS: [&str; 5] = ["gcc", "mcf", "twolf", "art", "swim"];

/// Built-in sweep names and one-line descriptions, in `iss list` order.
pub const BUILTINS: [(&str, &str); 13] = [
    (
        "fig4-dispatch",
        "Fig 4(a): effective dispatch rate isolation, detailed vs interval",
    ),
    (
        "fig4-icache",
        "Fig 4(b): I-cache/I-TLB isolation, detailed vs interval",
    ),
    (
        "fig4-branch",
        "Fig 4(c): branch prediction isolation, detailed vs interval",
    ),
    (
        "fig4-l2",
        "Fig 4(d): L2 cache isolation, detailed vs interval",
    ),
    (
        "fig5",
        "Fig 5: single-threaded SPEC accuracy on the Table 1 baseline",
    ),
    (
        "fig6",
        "Fig 6: homogeneous multi-program STP/ANTT vs copy count",
    ),
    (
        "fig7",
        "Fig 7: multi-threaded PARSEC normalized time vs core count",
    ),
    (
        "fig8",
        "Fig 8: 3D-stacking case study (2 cores + L2 vs 4 cores + 3D)",
    ),
    (
        "fig9",
        "Fig 9: simulation speedup, SPEC multi-program workloads",
    ),
    (
        "fig10",
        "Fig 10: simulation speedup, multi-threaded PARSEC workloads",
    ),
    (
        "hybrid",
        "Hybrid frontier: swap policies vs pure detailed (speed vs CPI error)",
    ),
    (
        "sampling",
        "Sampling frontier: sampled CPI with 95% CI vs pure detailed/interval",
    ),
    (
        "ablation",
        "Ablation: overlap modeling, old-window reset, one-IPC vs detailed",
    ),
];

/// Resolves a built-in sweep name at the given scale. The SPEC and PARSEC
/// sweeps use the quick benchmark subsets, or the full catalogs with
/// `all_benchmarks`; Figure 6 always uses [`FIG6_BENCHMARKS`].
#[must_use]
pub fn builtin_sweep(
    name: &str,
    scale: ExperimentScale,
    all_benchmarks: bool,
) -> Option<SweepSpec> {
    let (spec, parsec): (&[&str], &[&str]) = if all_benchmarks {
        (&SPEC_CPU2000, &PARSEC)
    } else {
        (&SPEC_QUICK, &PARSEC_QUICK)
    };
    if let Some((slug, machine)) = fig4_variants().into_iter().find(|(slug, _)| *slug == name) {
        return Some(experiments::fig4_sweep(slug, machine, spec, scale));
    }
    Some(match name {
        "fig5" => experiments::fig5_sweep(spec, scale),
        "fig6" => experiments::fig6_sweep(&FIG6_BENCHMARKS, &CORE_COUNTS, scale),
        "fig7" => experiments::fig7_sweep(parsec, &CORE_COUNTS, scale),
        "fig8" => experiments::fig8_sweep(parsec, scale),
        "fig9" => experiments::fig9_sweep(spec, &CORE_COUNTS, scale),
        "fig10" => experiments::fig10_sweep(parsec, &CORE_COUNTS, scale),
        "hybrid" => experiments::hybrid_sweep(spec, &default_hybrid_policies(scale), scale),
        "sampling" => experiments::sampling_sweep(spec, &default_sampling_specs(scale), scale),
        "ablation" => experiments::ablation_sweep(spec, scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_builtin_resolves_and_expands() {
        let scale = ExperimentScale::quick();
        for (name, _) in BUILTINS {
            let sweep = builtin_sweep(name, scale, false)
                .unwrap_or_else(|| panic!("builtin `{name}` must resolve"));
            assert_eq!(sweep.name, name);
            let points = sweep
                .expand()
                .unwrap_or_else(|e| panic!("builtin `{name}` must expand: {e}"));
            assert!(!points.is_empty(), "builtin `{name}` expands to no points");
        }
        assert!(builtin_sweep("fig11", scale, false).is_none());
    }

    #[test]
    fn all_benchmarks_swaps_in_the_full_catalogs() {
        let scale = ExperimentScale::quick();
        let benchmarks =
            |name: &str, all: bool| builtin_sweep(name, scale, all).unwrap().benchmarks;
        assert_eq!(benchmarks("fig5", false), SPEC_QUICK);
        assert_eq!(benchmarks("fig5", true), SPEC_CPU2000);
        assert_eq!(benchmarks("fig4-l2", true), SPEC_CPU2000);
        assert_eq!(benchmarks("fig7", false), PARSEC_QUICK);
        assert_eq!(benchmarks("fig10", true), PARSEC);
        // Figure 6 has its own benchmark set either way.
        assert_eq!(benchmarks("fig6", true), FIG6_BENCHMARKS);
    }

    #[test]
    fn builtin_files_round_trip_through_the_codec() {
        let scale = ExperimentScale::quick();
        for (name, _) in BUILTINS {
            let sweep = builtin_sweep(name, scale, false).unwrap();
            let reparsed = SweepSpec::from_toml(&sweep.to_toml())
                .unwrap_or_else(|e| panic!("builtin `{name}` must re-parse: {e}"));
            assert_eq!(
                sweep, reparsed,
                "builtin `{name}` drifted through the codec"
            );
        }
    }
}
