//! Workload specifications.
//!
//! A [`WorkloadSpec`] is a declarative description of what runs on the
//! simulated chip; [`WorkloadSpec::build`] turns it into the per-core
//! instruction streams (plus synchronization state) consumed by the
//! simulators. The three shapes cover the paper's evaluation: single-threaded
//! runs (Figures 4, 5), homogeneous multi-program workloads (Figures 6, 9)
//! and multi-threaded runs (Figures 7, 8, 10).

use iss_trace::{catalog, ThreadedWorkload, WorkloadProfile};

/// Declarative description of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// One single-threaded benchmark on one core.
    Single {
        /// Benchmark name (must exist in the catalog).
        benchmark: String,
        /// Dynamic instructions to simulate.
        length: u64,
    },
    /// `copies` independent copies of the same single-threaded benchmark, one
    /// per core (homogeneous multi-program workload).
    MultiprogramHomogeneous {
        /// Benchmark name.
        benchmark: String,
        /// Number of copies (= cores).
        copies: usize,
        /// Dynamic instructions per copy.
        length_per_copy: u64,
    },
    /// A heterogeneous multi-program workload: one benchmark per core.
    Multiprogram {
        /// Benchmark names, one per core.
        benchmarks: Vec<String>,
        /// Dynamic instructions per program.
        length_per_copy: u64,
    },
    /// One multi-threaded benchmark on `threads` cores.
    Multithreaded {
        /// Benchmark name (typically a PARSEC profile).
        benchmark: String,
        /// Number of threads (= cores).
        threads: usize,
        /// Total dynamic instructions across all threads.
        total_length: u64,
    },
}

impl WorkloadSpec {
    /// Convenience constructor for a single-threaded run.
    #[must_use]
    pub fn single(benchmark: &str, length: u64) -> Self {
        WorkloadSpec::Single {
            benchmark: benchmark.to_string(),
            length,
        }
    }

    /// Convenience constructor for a homogeneous multi-program workload.
    #[must_use]
    pub fn homogeneous(benchmark: &str, copies: usize, length_per_copy: u64) -> Self {
        WorkloadSpec::MultiprogramHomogeneous {
            benchmark: benchmark.to_string(),
            copies,
            length_per_copy,
        }
    }

    /// Convenience constructor for a multi-threaded run.
    #[must_use]
    pub fn multithreaded(benchmark: &str, threads: usize, total_length: u64) -> Self {
        WorkloadSpec::Multithreaded {
            benchmark: benchmark.to_string(),
            threads,
            total_length,
        }
    }

    /// Number of cores this workload occupies.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        match self {
            WorkloadSpec::Single { .. } => 1,
            WorkloadSpec::MultiprogramHomogeneous { copies, .. } => *copies,
            WorkloadSpec::Multiprogram { benchmarks, .. } => benchmarks.len(),
            WorkloadSpec::Multithreaded { threads, .. } => *threads,
        }
    }

    /// A short human-readable name for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Single { benchmark, .. } => benchmark.clone(),
            WorkloadSpec::MultiprogramHomogeneous {
                benchmark, copies, ..
            } => {
                format!("{benchmark}x{copies}")
            }
            WorkloadSpec::Multiprogram { benchmarks, .. } => benchmarks.join("+"),
            WorkloadSpec::Multithreaded {
                benchmark, threads, ..
            } => {
                format!("{benchmark}.{threads}t")
            }
        }
    }

    fn lookup(benchmark: &str) -> Result<WorkloadProfile, String> {
        catalog::profile(benchmark)
            .ok_or_else(|| format!("benchmark `{benchmark}` is not in the catalog"))
    }

    /// Checks the spec without building it: every benchmark must exist in
    /// the catalog and every size parameter must be non-zero. Each defect
    /// gets its own precise message — an empty `Multiprogram` benchmark
    /// list and a zero `length_per_copy` are different mistakes and must
    /// not share an error.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure encountered.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WorkloadSpec::Single { benchmark, length } => {
                if *length == 0 {
                    return Err("workload length must be non-zero".to_string());
                }
                Self::lookup(benchmark).map(|_| ())
            }
            WorkloadSpec::MultiprogramHomogeneous {
                benchmark,
                copies,
                length_per_copy,
            } => {
                if *copies == 0 {
                    return Err("multiprogram copies must be non-zero".to_string());
                }
                if *length_per_copy == 0 {
                    return Err("multiprogram length_per_copy must be non-zero".to_string());
                }
                Self::lookup(benchmark).map(|_| ())
            }
            WorkloadSpec::Multiprogram {
                benchmarks,
                length_per_copy,
            } => {
                if benchmarks.is_empty() {
                    return Err(
                        "multiprogram benchmark list is empty — name one benchmark per core"
                            .to_string(),
                    );
                }
                if *length_per_copy == 0 {
                    return Err("multiprogram length_per_copy must be non-zero".to_string());
                }
                for b in benchmarks {
                    Self::lookup(b)?;
                }
                Ok(())
            }
            WorkloadSpec::Multithreaded {
                benchmark,
                threads,
                total_length,
            } => {
                if *threads == 0 {
                    return Err("multithreaded thread count must be non-zero".to_string());
                }
                if *total_length == 0 {
                    return Err("multithreaded total_length must be non-zero".to_string());
                }
                Self::lookup(benchmark).map(|_| ())
            }
        }
    }

    /// Builds the workload (per-core instruction streams + synchronization
    /// state) with the given seed.
    ///
    /// # Errors
    ///
    /// Returns an error when a benchmark name is not in the catalog or a size
    /// parameter is zero (see [`WorkloadSpec::validate`]).
    pub fn build(&self, seed: u64) -> Result<ThreadedWorkload, String> {
        self.validate()?;
        match self {
            WorkloadSpec::Single { benchmark, length } => {
                let p = Self::lookup(benchmark)?;
                Ok(ThreadedWorkload::single(&p, seed, *length))
            }
            WorkloadSpec::MultiprogramHomogeneous {
                benchmark,
                copies,
                length_per_copy,
            } => {
                let p = Self::lookup(benchmark)?;
                Ok(ThreadedWorkload::multiprogram_homogeneous(
                    &p,
                    *copies,
                    seed,
                    *length_per_copy,
                ))
            }
            WorkloadSpec::Multiprogram {
                benchmarks,
                length_per_copy,
            } => {
                let profiles = benchmarks
                    .iter()
                    .map(|b| Self::lookup(b))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ThreadedWorkload::multiprogram(
                    &profiles,
                    seed,
                    *length_per_copy,
                ))
            }
            WorkloadSpec::Multithreaded {
                benchmark,
                threads,
                total_length,
            } => {
                let p = Self::lookup(benchmark)?;
                Ok(ThreadedWorkload::multithreaded(
                    &p,
                    *threads,
                    seed,
                    *total_length,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_builds_one_core() {
        let w = WorkloadSpec::single("gcc", 1_000).build(1).unwrap();
        assert_eq!(w.num_cores(), 1);
        assert_eq!(w.total_instructions(), 1_000);
    }

    #[test]
    fn homogeneous_builds_copies() {
        let spec = WorkloadSpec::homogeneous("mcf", 4, 500);
        assert_eq!(spec.num_cores(), 4);
        assert_eq!(spec.label(), "mcfx4");
        let w = spec.build(2).unwrap();
        assert_eq!(w.num_cores(), 4);
        assert_eq!(w.total_instructions(), 2_000);
    }

    #[test]
    fn heterogeneous_builds_each_program() {
        let spec = WorkloadSpec::Multiprogram {
            benchmarks: vec!["gcc".to_string(), "art".to_string()],
            length_per_copy: 300,
        };
        assert_eq!(spec.label(), "gcc+art");
        let w = spec.build(3).unwrap();
        assert_eq!(w.num_cores(), 2);
    }

    #[test]
    fn multithreaded_splits_total_length() {
        let spec = WorkloadSpec::multithreaded("vips", 4, 8_000);
        assert_eq!(spec.label(), "vips.4t");
        let w = spec.build(4).unwrap();
        assert_eq!(w.num_cores(), 4);
        assert_eq!(w.total_instructions(), 8_000);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(WorkloadSpec::single("doom", 100).build(1).is_err());
    }

    #[test]
    fn zero_sizes_are_errors() {
        assert!(WorkloadSpec::single("gcc", 0).build(1).is_err());
        assert!(WorkloadSpec::homogeneous("gcc", 0, 10).build(1).is_err());
        assert!(WorkloadSpec::multithreaded("vips", 0, 10).build(1).is_err());
    }

    #[test]
    fn multiprogram_defects_get_distinct_errors() {
        // An empty benchmark list and a zero per-copy length are different
        // mistakes; the messages must tell them apart.
        let empty = WorkloadSpec::Multiprogram {
            benchmarks: vec![],
            length_per_copy: 300,
        }
        .build(1)
        .unwrap_err();
        assert!(
            empty.contains("benchmark list is empty"),
            "empty-list error must name the list, got: {empty}"
        );
        assert!(
            !empty.contains("length_per_copy"),
            "empty-list error must not mention the length, got: {empty}"
        );

        let zero_len = WorkloadSpec::Multiprogram {
            benchmarks: vec!["gcc".to_string(), "art".to_string()],
            length_per_copy: 0,
        }
        .build(1)
        .unwrap_err();
        assert!(
            zero_len.contains("length_per_copy must be non-zero"),
            "zero-length error must name the length, got: {zero_len}"
        );
        assert!(
            !zero_len.contains("empty"),
            "zero-length error must not mention the list, got: {zero_len}"
        );
        assert_ne!(empty, zero_len);
    }

    #[test]
    fn validate_matches_build_without_building() {
        let good = WorkloadSpec::homogeneous("mcf", 2, 500);
        good.validate().unwrap();
        let bad = WorkloadSpec::Multiprogram {
            benchmarks: vec!["gcc".to_string(), "doom".to_string()],
            length_per_copy: 100,
        };
        let v = bad.validate().unwrap_err();
        let b = bad.build(1).unwrap_err();
        assert_eq!(v, b);
        assert!(v.contains("doom"));
    }
}
