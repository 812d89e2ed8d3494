//! Detailed out-of-order core configuration (Table 1 of the paper).

/// Structural parameters of the detailed out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailedCoreConfig {
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries (instructions dispatched but not yet issued).
    pub issue_queue_entries: usize,
    /// Load/store queue entries.
    pub lsq_entries: usize,
    /// Store buffer entries (committed stores draining to the cache).
    pub store_buffer_entries: usize,
    /// Decode/dispatch/commit width.
    pub dispatch_width: u32,
    /// Issue width (instructions starting execution per cycle).
    pub issue_width: u32,
    /// Fetch width.
    pub fetch_width: u32,
    /// Fetch queue entries.
    pub fetch_queue_entries: usize,
    /// Front-end pipeline depth in stages (fetch-to-dispatch latency, and the
    /// refill penalty after a branch misprediction).
    pub frontend_pipeline_depth: u64,
    /// Integer functional units (ALU/multiply/divide).
    pub int_units: u32,
    /// Load/store functional units.
    pub mem_units: u32,
    /// Floating-point functional units.
    pub fp_units: u32,
}

impl DetailedCoreConfig {
    /// The paper's baseline core (Table 1).
    #[must_use]
    pub fn hpca2010_baseline() -> Self {
        DetailedCoreConfig {
            rob_entries: 256,
            issue_queue_entries: 128,
            lsq_entries: 128,
            store_buffer_entries: 64,
            dispatch_width: 4,
            issue_width: 6,
            fetch_width: 8,
            fetch_queue_entries: 16,
            frontend_pipeline_depth: 7,
            int_units: 4,
            mem_units: 4,
            fp_units: 4,
        }
    }

    /// Validates the structural parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("rob_entries", self.rob_entries),
            ("issue_queue_entries", self.issue_queue_entries),
            ("lsq_entries", self.lsq_entries),
            ("store_buffer_entries", self.store_buffer_entries),
            ("fetch_queue_entries", self.fetch_queue_entries),
        ] {
            if v == 0 {
                return Err(format!("detailed core parameter `{name}` must be non-zero"));
            }
        }
        for (name, v) in [
            ("dispatch_width", self.dispatch_width),
            ("issue_width", self.issue_width),
            ("fetch_width", self.fetch_width),
            ("int_units", self.int_units),
            ("mem_units", self.mem_units),
            ("fp_units", self.fp_units),
        ] {
            if v == 0 {
                return Err(format!("detailed core parameter `{name}` must be non-zero"));
            }
        }
        if self.frontend_pipeline_depth == 0 {
            return Err("frontend_pipeline_depth must be non-zero".to_string());
        }
        if self.issue_queue_entries > self.rob_entries {
            return Err("the issue queue cannot be larger than the ROB".to_string());
        }
        Ok(())
    }
}

impl Default for DetailedCoreConfig {
    fn default() -> Self {
        Self::hpca2010_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = DetailedCoreConfig::hpca2010_baseline();
        c.validate().unwrap();
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.issue_queue_entries, 128);
        assert_eq!(c.lsq_entries, 128);
        assert_eq!(c.store_buffer_entries, 64);
        assert_eq!(c.dispatch_width, 4);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.fetch_queue_entries, 16);
        assert_eq!(c.frontend_pipeline_depth, 7);
        assert_eq!((c.int_units, c.mem_units, c.fp_units), (4, 4, 4));
    }

    #[test]
    fn zero_parameters_rejected() {
        let mut c = DetailedCoreConfig::hpca2010_baseline();
        c.rob_entries = 0;
        assert!(c.validate().is_err());
        let mut c = DetailedCoreConfig::hpca2010_baseline();
        c.issue_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn issue_queue_larger_than_rob_rejected() {
        let mut c = DetailedCoreConfig::hpca2010_baseline();
        c.issue_queue_entries = 512;
        assert!(c.validate().is_err());
    }
}
