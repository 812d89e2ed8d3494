//! Runtime-detected `std::arch` backend for the `iss-simd` slice kernels.
//!
//! This is the **one** crate in the workspace allowed to contain `unsafe`
//! code, and it exists for exactly one reason: the portable branchless
//! kernels in `iss-simd` autovectorize well for short slices, but the
//! baseline `x86-64` target (SSE2) has no 64-bit integer vector compare, so
//! long equality scans and min/max reductions over `u64` columns — the TLB
//! page walk and its LRU victim scan are the motivating callers — leave a
//! 3-10× win on the table on AVX-512 hosts. The functions here provide that
//! win behind `is_x86_feature_detected!` runtime dispatch and fall back to
//! plain scalar loops everywhere else, so the crate is safe to call
//! unconditionally on every target.
//!
//! Contract, shared with `iss-simd` and enforced by its differential
//! property tests: every function returns **exactly** what the documented
//! scalar reference loop returns (first match, first minimum, first
//! maximum). The vector paths only ever reduce with order-insensitive
//! operations (equality masks, unsigned min/max) and then locate the first
//! occurrence, so lane order can never leak into results and the simulator
//! stays bit-identical whether or not the backend is detected.
//!
//! Lint note: this crate deliberately does not inherit the workspace
//! `[lints]` table. Model crates inherit `unsafe_code = "forbid"`, which is
//! incompatible with `std::arch` by design; confining the intrinsics to
//! this dedicated leaf crate keeps every model crate unsafe-free. The
//! crate compiles under `clippy -D warnings` like everything else, and
//! every `unsafe fn` documents its safety contract.

#![warn(missing_docs)]

use std::sync::OnceLock;

/// One-time cached result of the CPU feature probe.
///
/// `is_x86_feature_detected!` itself resolves to a call into libstd on
/// every use; at a few nanoseconds that call is real money on kernels
/// invoked once per simulated memory access, so the answer is frozen here
/// and every dispatch pays one atomic load and a predictable branch.
static AVX512: OnceLock<bool> = OnceLock::new();

/// Whether the accelerated backend is active on this host.
///
/// `true` only on `x86_64` hosts whose CPU reports AVX-512F at runtime.
/// When this returns `false` the public kernels still work — they run the
/// scalar fallback — but callers holding an equally-good portable path
/// (as `iss-simd` does for short slices) should prefer their own.
#[inline]
#[must_use]
pub fn available() -> bool {
    *AVX512.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Index of the first element equal to `needle`, exactly as
/// `xs.iter().position(|&x| x == needle)`.
#[inline]
#[must_use]
pub fn find_eq(xs: &[u64], needle: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX-512F support at runtime.
        return unsafe { x86::find_eq_avx512(xs, needle) };
    }
    xs.iter().position(|&x| x == needle)
}

/// Index of the first minimum of `xs`, exactly as
/// `xs.iter().enumerate().min_by_key(|&(_, &x)| x).map(|(i, _)| i)`
/// (ties resolve to the lowest index). `None` on an empty slice.
#[inline]
#[must_use]
pub fn min_index(xs: &[u64]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX-512F support at runtime.
        return unsafe { x86::min_index_avx512(xs) };
    }
    scalar_extremum(xs, false)
}

/// Index of the first maximum of `xs` (ties resolve to the lowest index).
/// `None` on an empty slice.
#[inline]
#[must_use]
pub fn max_index(xs: &[u64]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX-512F support at runtime.
        return unsafe { x86::max_index_avx512(xs) };
    }
    scalar_extremum(xs, true)
}

/// Scalar fallback: first-extremum fold, compiled on every target.
fn scalar_extremum(xs: &[u64], maximize: bool) -> Option<usize> {
    let (&first, rest) = xs.split_first()?;
    let mut best_v = first;
    let mut best_i = 0usize;
    for (j, &x) in rest.iter().enumerate() {
        let better = if maximize { x > best_v } else { x < best_v };
        if better {
            best_v = x;
            best_i = j + 1;
        }
    }
    Some(best_i)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __mmask8, _mm512_cmpeq_epu64_mask, _mm512_loadu_si512, _mm512_mask_cmpeq_epu64_mask,
        _mm512_mask_loadu_epi64, _mm512_maskz_loadu_epi64, _mm512_max_epu64, _mm512_min_epu64,
        _mm512_reduce_max_epu64, _mm512_reduce_min_epu64, _mm512_set1_epi64,
    };

    /// First index equal to `needle` via 8-wide compare masks.
    ///
    /// The remainder uses a masked load, so the whole scan is branch-free
    /// except for the one well-predicted "any lane hit?" test per chunk;
    /// `trailing_zeros` on the compare mask recovers the *first* matching
    /// lane, preserving scalar `position` semantics.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn find_eq_avx512(xs: &[u64], needle: u64) -> Option<usize> {
        let probe = _mm512_set1_epi64(needle as i64);
        let mut i = 0usize;
        while i + 8 <= xs.len() {
            let v = _mm512_loadu_si512(xs.as_ptr().add(i).cast());
            let k = _mm512_cmpeq_epu64_mask(v, probe);
            if k != 0 {
                return Some(i + k.trailing_zeros() as usize);
            }
            i += 8;
        }
        let rem = xs.len() - i;
        if rem > 0 {
            let m: __mmask8 = (1u8 << rem) - 1;
            let v = _mm512_maskz_loadu_epi64(m, xs.as_ptr().add(i).cast());
            let k = _mm512_mask_cmpeq_epu64_mask(m, v, probe);
            if k != 0 {
                return Some(i + k.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Two-pass first-minimum: an 8-wide unsigned-min reduction finds the
    /// extremal *value*, then [`find_eq_avx512`] locates its first
    /// occurrence — which is by definition the first minimum, so scalar
    /// tie-to-lowest-index semantics are preserved exactly. Masked-out
    /// remainder lanes load as `u64::MAX`, the min identity.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn min_index_avx512(xs: &[u64]) -> Option<usize> {
        if xs.is_empty() {
            return None;
        }
        let mut acc = _mm512_set1_epi64(-1i64); // all lanes u64::MAX
        let mut i = 0usize;
        while i + 8 <= xs.len() {
            let v = _mm512_loadu_si512(xs.as_ptr().add(i).cast());
            acc = _mm512_min_epu64(acc, v);
            i += 8;
        }
        let rem = xs.len() - i;
        if rem > 0 {
            let m: __mmask8 = (1u8 << rem) - 1;
            let v = _mm512_mask_loadu_epi64(_mm512_set1_epi64(-1i64), m, xs.as_ptr().add(i).cast());
            acc = _mm512_min_epu64(acc, v);
        }
        find_eq_avx512(xs, _mm512_reduce_min_epu64(acc))
    }

    /// Two-pass first-maximum, the mirror of [`min_index_avx512`].
    /// Masked-out remainder lanes load as zero, the unsigned-max identity.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn max_index_avx512(xs: &[u64]) -> Option<usize> {
        if xs.is_empty() {
            return None;
        }
        let mut acc = _mm512_set1_epi64(0);
        let mut i = 0usize;
        while i + 8 <= xs.len() {
            let v = _mm512_loadu_si512(xs.as_ptr().add(i).cast());
            acc = _mm512_max_epu64(acc, v);
            i += 8;
        }
        let rem = xs.len() - i;
        if rem > 0 {
            let m: __mmask8 = (1u8 << rem) - 1;
            let v = _mm512_maskz_loadu_epi64(m, xs.as_ptr().add(i).cast());
            acc = _mm512_max_epu64(acc, v);
        }
        find_eq_avx512(xs, _mm512_reduce_max_epu64(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pseudo-random but deterministic test columns.
    fn column(len: usize, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % 97
            })
            .collect()
    }

    #[test]
    fn kernels_match_scalar_references_across_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 48, 64, 100] {
            let xs = column(len, 0x5eed ^ len as u64);
            for needle in 0..97u64 {
                assert_eq!(
                    find_eq(&xs, needle),
                    xs.iter().position(|&x| x == needle),
                    "find_eq len {len} needle {needle}"
                );
            }
            assert_eq!(
                min_index(&xs),
                xs.iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(i, _)| i),
                "min_index len {len}"
            );
            let max_ref = if xs.is_empty() {
                None
            } else {
                let m = *xs.iter().max().unwrap_or(&0);
                xs.iter().position(|&x| x == m)
            };
            assert_eq!(max_index(&xs), max_ref, "max_index len {len}");
        }
    }

    #[test]
    fn scalar_fallback_matches_too() {
        // Exercise the fallback explicitly, whatever the host supports.
        let xs = column(64, 0xfa11);
        let m = *xs.iter().min().unwrap_or(&0);
        assert_eq!(scalar_extremum(&xs, false), xs.iter().position(|&x| x == m));
        assert_eq!(scalar_extremum(&[], true), None);
    }
}
