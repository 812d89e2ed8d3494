//! Complete per-core branch prediction unit.
//!
//! [`BranchUnit`] combines the conditional direction predictor, the branch
//! target buffer and the return address stack into the single interface the
//! timing simulators use: given a resolved branch (functional-first
//! simulation knows the architectural outcome), report whether the front-end
//! would have predicted it correctly.

use iss_trace::{BranchClass, BranchInfo};

use crate::btb::BranchTargetBuffer;
use crate::config::{BranchPredictorConfig, DirectionPredictorKind};
use crate::direction::{build_direction_predictor, AnyDirectionPredictor, DirectionPredictor};
use crate::ras::ReturnAddressStack;

/// Result of predicting one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the front-end mispredicted (direction or target).
    pub mispredicted: bool,
    /// Whether the direction prediction was wrong (conditional branches only).
    pub direction_mispredict: bool,
    /// Whether the target prediction was wrong (BTB miss/stale or RAS miss).
    pub target_mispredict: bool,
    /// The architecturally resolved direction.
    pub resolved_taken: bool,
}

/// Aggregate branch prediction statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Dynamic branches predicted.
    pub branches: u64,
    /// Total mispredictions (direction or target).
    pub mispredictions: u64,
    /// Direction mispredictions.
    pub direction_mispredictions: u64,
    /// Target mispredictions.
    pub target_mispredictions: u64,
}

impl BranchStats {
    /// Mispredictions per kilo-instruction given the instruction count.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / instructions as f64
        }
    }

    /// Prediction accuracy in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// Per-core branch prediction front-end: direction predictor + BTB + RAS.
///
/// The direction predictor is an [`AnyDirectionPredictor`] enum, not a boxed
/// trait object: predictions happen once per dynamic branch, and enum
/// dispatch keeps that call monomorphic (no vtable on the hot path).
#[derive(Clone)]
pub struct BranchUnit {
    config: BranchPredictorConfig,
    direction: AnyDirectionPredictor,
    btb: BranchTargetBuffer,
    ras: ReturnAddressStack,
    stats: BranchStats,
}

impl std::fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchUnit")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl BranchUnit {
    /// Creates a branch unit from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BranchPredictorConfig::validate`].
    #[must_use]
    pub fn new(config: &BranchPredictorConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid branch predictor configuration: {e}"));
        BranchUnit {
            config: *config,
            direction: build_direction_predictor(config),
            btb: BranchTargetBuffer::new(config.btb_entries, config.btb_ways),
            ras: ReturnAddressStack::new(config.ras_entries),
            stats: BranchStats::default(),
        }
    }

    /// Whether this unit never mispredicts (perfect mode for Figure 4).
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.config.kind == DirectionPredictorKind::Perfect && self.config.perfect_targets
    }

    /// The configuration the unit was built from.
    #[must_use]
    pub fn config(&self) -> &BranchPredictorConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Side-effect-free query: would the front-end mispredict the branch at
    /// `pc` given its architectural outcome `info`? No table is trained, no
    /// statistic is updated — used by the interval model's overlap scan to
    /// decide whether instructions behind a load-dependent branch are
    /// wrong-path work.
    #[must_use]
    pub fn would_mispredict(&self, pc: u64, info: &BranchInfo) -> bool {
        if self.is_perfect() {
            return false;
        }
        let direction_correct = match info.class {
            BranchClass::Conditional => {
                if self.config.kind == DirectionPredictorKind::Perfect {
                    true
                } else {
                    self.direction.predict(pc) == info.taken
                }
            }
            _ => true,
        };
        let target_correct = if self.config.perfect_targets {
            true
        } else {
            match info.class {
                BranchClass::Return => self.ras.peek() == Some(info.target),
                _ => !info.taken || self.btb.probe(pc) == Some(info.target),
            }
        };
        !(direction_correct && target_correct)
    }

    /// Predicts the branch at `pc` with architectural outcome `info`, trains
    /// every structure, and reports whether the front-end mispredicted.
    pub fn predict_and_update(&mut self, pc: u64, info: &BranchInfo) -> BranchOutcome {
        self.stats.branches += 1;

        if self.is_perfect() {
            return BranchOutcome {
                mispredicted: false,
                direction_mispredict: false,
                target_mispredict: false,
                resolved_taken: info.taken,
            };
        }

        // --- direction prediction (conditional branches only) ---
        let direction_correct = match info.class {
            BranchClass::Conditional => {
                if self.config.kind == DirectionPredictorKind::Perfect {
                    true
                } else {
                    self.direction.predict_and_update(pc, info.taken)
                }
            }
            // Unconditional transfers always resolve taken.
            _ => true,
        };

        // --- target prediction ---
        let target_correct = if self.config.perfect_targets {
            true
        } else {
            match info.class {
                BranchClass::Return => {
                    let predicted = self.ras.pop();
                    predicted == Some(info.target)
                }
                BranchClass::Conditional
                | BranchClass::UnconditionalDirect
                | BranchClass::Indirect
                | BranchClass::Call => {
                    let predicted = self.btb.lookup(pc);
                    self.btb.update(pc, info.target);
                    if info.taken {
                        // A taken branch needs a correct BTB target; a
                        // not-taken branch falls through regardless.
                        predicted == Some(info.target)
                    } else {
                        true
                    }
                }
            }
        };
        if info.class == BranchClass::Call && !self.config.perfect_targets {
            self.ras.push(info.fallthrough);
        }

        // The fetch unit only redirects on a predicted-taken direction, so a
        // wrong target matters when the resolved direction is taken and the
        // direction was predicted correctly; simplifying, any wrong component
        // is a misprediction (this matches how M5-style front-ends account
        // "squashes due to branches").
        let direction_mispredict = !direction_correct;
        let target_mispredict = direction_correct && !target_correct;
        let mispredicted = direction_mispredict || target_mispredict;

        if mispredicted {
            self.stats.mispredictions += 1;
        }
        if direction_mispredict {
            self.stats.direction_mispredictions += 1;
        }
        if target_mispredict {
            self.stats.target_mispredictions += 1;
        }

        BranchOutcome {
            mispredicted,
            direction_mispredict,
            target_mispredict,
            resolved_taken: info.taken,
        }
    }

    /// Trains every structure over a whole branch column: the batch's branch
    /// subset as parallel `pcs`/`infos` arrays, in program order.
    ///
    /// Table evolution (direction counters, BTB, RAS) and statistics are
    /// exactly the scalar [`predict_and_update`](Self::predict_and_update)
    /// loop over the same column — the predictions themselves are
    /// discarded, which is all functional warming needs (warming trains the
    /// front-end; only the timing models consume outcomes). One tight loop
    /// over two contiguous columns replaces per-branch call overhead on the
    /// warming hot path.
    ///
    /// # Panics
    ///
    /// Panics when the columns disagree on length.
    pub fn update_batch(&mut self, pcs: &[u64], infos: &[BranchInfo]) {
        assert_eq!(
            pcs.len(),
            infos.len(),
            "branch batch columns must have equal length"
        );
        if self.is_perfect() {
            // The scalar path only counts the branch on the perfect
            // short-circuit; match it without touching any table.
            self.stats.branches += pcs.len() as u64;
            return;
        }
        for (pc, info) in pcs.iter().zip(infos) {
            let _ = self.predict_and_update(*pc, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool, target: u64, fallthrough: u64) -> BranchInfo {
        BranchInfo {
            class: BranchClass::Conditional,
            taken,
            target,
            fallthrough,
        }
    }

    #[test]
    fn perfect_unit_never_mispredicts() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::perfect());
        for i in 0..100u64 {
            let o = u.predict_and_update(
                0x1000 + i * 4,
                &cond(i % 3 == 0, 0x9000, 0x1000 + i * 4 + 4),
            );
            assert!(!o.mispredicted);
        }
        assert_eq!(u.stats().mispredictions, 0);
        assert_eq!(u.stats().branches, 100);
        assert!((u.stats().accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_learns_biased_branch() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        let mut last_miss = 0;
        for i in 0..500 {
            let o = u.predict_and_update(0x1000, &cond(true, 0x9000, 0x1004));
            if o.mispredicted {
                last_miss = i;
            }
        }
        assert!(
            last_miss < 10,
            "a fully biased branch must be learned quickly (last miss at {last_miss})"
        );
    }

    #[test]
    fn btb_miss_counts_as_target_misprediction() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        // First encounter of a taken branch: direction may be right (counters
        // initialized weakly-taken) but the BTB cannot know the target.
        let o = u.predict_and_update(0x2000, &cond(true, 0xbeef_0000, 0x2004));
        assert!(o.mispredicted);
        // Second encounter hits in the BTB.
        let o2 = u.predict_and_update(0x2000, &cond(true, 0xbeef_0000, 0x2004));
        assert!(!o2.mispredicted);
    }

    #[test]
    fn returns_use_the_ras() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        let call = BranchInfo {
            class: BranchClass::Call,
            taken: true,
            target: 0x8000,
            fallthrough: 0x1004,
        };
        let ret = BranchInfo {
            class: BranchClass::Return,
            taken: true,
            target: 0x1004,
            fallthrough: 0x8004,
        };
        // Train the BTB for the call once.
        u.predict_and_update(0x1000, &call);
        let o_call = u.predict_and_update(0x1000, &call);
        assert!(!o_call.mispredicted);
        let o_ret = u.predict_and_update(0x8000, &ret);
        assert!(
            !o_ret.mispredicted,
            "return target should come from the RAS"
        );
    }

    #[test]
    fn indirect_branch_with_changing_targets_mispredicts() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        let mut misses = 0;
        for i in 0..100u64 {
            let info = BranchInfo {
                class: BranchClass::Indirect,
                taken: true,
                target: 0x9000 + (i % 4) * 0x100,
                fallthrough: 0x3004,
            };
            if u.predict_and_update(0x3000, &info).mispredicted {
                misses += 1;
            }
        }
        assert!(
            misses > 50,
            "rotating indirect targets must mispredict often, got {misses}"
        );
    }

    #[test]
    fn stats_mpki_scales_with_instructions() {
        let s = BranchStats {
            mispredictions: 10,
            ..Default::default()
        };
        assert!((s.mpki(1000) - 10.0).abs() < 1e-9);
        assert!((s.mpki(0)).abs() < 1e-9);
    }

    #[test]
    fn not_taken_branch_does_not_need_btb() {
        let mut u = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        // Train not-taken.
        for _ in 0..8 {
            u.predict_and_update(0x5000, &cond(false, 0x9000, 0x5004));
        }
        let before = u.stats().mispredictions;
        let o = u.predict_and_update(0x5000, &cond(false, 0x9000, 0x5004));
        assert!(!o.mispredicted);
        assert_eq!(u.stats().mispredictions, before);
    }

    #[test]
    fn batch_update_matches_scalar_loop() {
        for config in [
            BranchPredictorConfig::hpca2010_baseline(),
            BranchPredictorConfig::perfect(),
        ] {
            let mut pcs = Vec::new();
            let mut infos = Vec::new();
            for i in 0..400u64 {
                let class = match i % 5 {
                    0 => BranchClass::Call,
                    1 => BranchClass::Return,
                    2 => BranchClass::UnconditionalDirect,
                    3 => BranchClass::Indirect,
                    _ => BranchClass::Conditional,
                };
                pcs.push(0x1000 + (i % 32) * 4);
                infos.push(BranchInfo {
                    class,
                    taken: !matches!(class, BranchClass::Conditional) || i % 3 != 0,
                    target: 0x9000 + (i % 7) * 0x40,
                    fallthrough: 0x1000 + (i % 32) * 4 + 4,
                });
            }
            let mut scalar = BranchUnit::new(&config);
            for (pc, info) in pcs.iter().zip(&infos) {
                let _ = scalar.predict_and_update(*pc, info);
            }
            let mut batched = BranchUnit::new(&config);
            // Split across uneven batch boundaries to show the cut is free.
            batched.update_batch(&pcs[..13], &infos[..13]);
            batched.update_batch(&pcs[13..13], &infos[13..13]);
            batched.update_batch(&pcs[13..], &infos[13..]);
            assert_eq!(batched.stats(), scalar.stats());
            // Tables trained identically: both make the same predictions.
            for (pc, info) in pcs.iter().zip(&infos) {
                assert_eq!(
                    batched.would_mispredict(*pc, info),
                    scalar.would_mispredict(*pc, info)
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_preserves_trained_state() {
        let mut trained = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        for i in 0..200u64 {
            let taken = i % 3 != 0;
            trained.predict_and_update(0x7000 + (i % 16) * 4, &cond(taken, 0xA000, 0x7004));
        }
        let restored = trained.clone();
        assert_eq!(restored.stats(), trained.stats());
        // The restored unit must make the same predictions as the trained one
        // on a probe sequence (tables carried over, not reset).
        for i in 0..32u64 {
            let info = cond(i % 3 != 0, 0xA000, 0x7004);
            let pc = 0x7000 + (i % 16) * 4;
            assert_eq!(
                restored.would_mispredict(pc, &info),
                trained.would_mispredict(pc, &info)
            );
        }
    }
}
