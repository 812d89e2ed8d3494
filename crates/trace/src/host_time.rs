//! The workspace's single wall-clock portal.
//!
//! Simulated timing must never depend on the host's clock: records are
//! required to be bit-identical at any worker count, and a stray
//! `Instant::now()` inside model code is exactly the kind of
//! nondeterminism that survives code review unnoticed. The rule this
//! repo enforces (statically, via clippy's `disallowed_types` and
//! `disallowed_methods` in the workspace `clippy.toml`) is that
//! **only this module** may read the wall clock; everything else —
//! simulators accumulating `host_seconds`, the perf harness, the sampled
//! runner's phase breakdown — measures elapsed host time through
//! [`HostTimer`], which is observable in reports but never feeds back
//! into simulated state.
//!
//! The type is deliberately minimal: start a timer, read elapsed seconds.
//! There is no way to obtain an absolute timestamp, compare timers, or
//! branch on the clock — an elapsed reading is a reporting quantity, not
//! an input.
//!
//! ```
//! use iss_trace::host_time::HostTimer;
//!
//! let timer = HostTimer::start();
//! let elapsed = timer.elapsed_seconds();
//! assert!(elapsed >= 0.0);
//! ```

#[expect(
    clippy::disallowed_types,
    reason = "the HostTimer portal itself; elapsed host seconds never feed back into simulated state"
)]
use std::time::Instant;

/// A monotonic elapsed-host-seconds stopwatch — the only sanctioned way
/// to observe wall-clock time anywhere in the workspace.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "the HostTimer portal itself; elapsed host seconds never feed back into simulated state"
)]
pub struct HostTimer {
    start: Instant,
}

// `Clone`/`Copy` by hand: the derived `Clone` names the field type
// outside the struct's lint expectation.
impl Clone for HostTimer {
    fn clone(&self) -> Self {
        *self
    }
}

impl Copy for HostTimer {}

impl HostTimer {
    /// Starts a timer at the current host instant.
    #[must_use]
    pub fn start() -> Self {
        #[expect(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "the HostTimer portal itself; elapsed host seconds never feed back into simulated state"
        )]
        let start = Instant::now();
        HostTimer { start }
    }

    /// Seconds of host wall-clock time elapsed since [`HostTimer::start`].
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let t = HostTimer::start();
        let a = t.elapsed_seconds();
        let b = t.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a, "elapsed readings must not go backwards");
    }

    #[test]
    fn timers_are_independent() {
        let outer = HostTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        let inner = HostTimer::start();
        // Sample the inner (shorter-lived) timer first: the outer reading
        // then covers a strict superset of the inner interval, so the
        // comparison cannot be raced by the gap between the two samples.
        let inner_elapsed = inner.elapsed_seconds();
        assert!(outer.elapsed_seconds() >= inner_elapsed);
    }
}
