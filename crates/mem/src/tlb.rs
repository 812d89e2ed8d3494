//! Translation lookaside buffers.
//!
//! TLB misses are one of the miss-event classes of interval analysis: an
//! I-TLB miss behaves like an I-cache miss (front-end starvation for the
//! duration of the walk), a D-TLB miss on a load behaves like a long-latency
//! load. The TLB is modeled as a fully-associative LRU cache of page
//! translations with a fixed page-walk penalty.

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Page-walk penalty in cycles on a miss.
    pub miss_latency: u64,
}

impl TlbConfig {
    /// 64-entry, 64 KB effective pages (8 KB base pages with superpage
    /// promotion, as Alpha supported), 30-cycle walk.
    #[must_use]
    pub fn default_dtlb() -> Self {
        TlbConfig {
            entries: 64,
            page_bytes: 64 * 1024,
            miss_latency: 30,
        }
    }

    /// 48-entry instruction TLB.
    #[must_use]
    pub fn default_itlb() -> Self {
        TlbConfig {
            entries: 48,
            page_bytes: 64 * 1024,
            miss_latency: 30,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when a field is zero or the page
    /// size is not a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries == 0 {
            return Err("TLB must have at least one entry".to_string());
        }
        if self.page_bytes == 0 || !self.page_bytes.is_power_of_two() {
            return Err("page size must be a non-zero power of two".to_string());
        }
        Ok(())
    }
}

/// Fully-associative, LRU translation lookaside buffer.
///
/// Residency is a pair of parallel flat columns (`pages` / `stamps`) with a
/// monotone clock: a hit updates one stamp in place and eviction replaces
/// the minimum-stamp slot — the exact LRU victim, without the `Vec::remove`
/// memmove per hit that an ordered recency list costs (the D-TLB is
/// consulted on every load/store). Keeping the page numbers contiguous lets
/// the associative scan run as a short scalar early-exit over the hot head
/// slots followed by a lane compare over the tail ([`iss_simd::find_eq`]),
/// and the victim scan as a lane minimum ([`iss_simd::min_index`]) over the
/// whole stamp column.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page numbers.
    pages: Vec<u64>,
    /// Last-use stamps, parallel to `pages`.
    stamps: Vec<u64>,
    /// Precomputed page-number shift (`page_bytes` is a validated power of
    /// two), so the per-access page extraction is a shift, not a 64-bit
    /// division.
    page_shift: u32,
    /// Slot index of the most recent hit, checked before the associative
    /// scan. Accesses exhibit long same-page streaks (one page covers
    /// hundreds of lines), and the fast path performs exactly the same
    /// stamp/counter updates as the scan finding the same slot would.
    last_hit: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TlbConfig::validate`].
    #[must_use]
    pub fn new(config: &TlbConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid TLB configuration: {e}"));
        Tlb {
            config: *config,
            pages: Vec::with_capacity(config.entries),
            stamps: Vec::with_capacity(config.entries),
            page_shift: config.page_bytes.trailing_zeros(),
            last_hit: 0,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration of this TLB.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    fn page_of(&self, vaddr: u64) -> u64 {
        vaddr >> self.page_shift
    }

    /// Number of resident translations (warmth numerator).
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.pages.len()
    }

    /// Fraction of the TLB holding valid translations, in `0.0..=1.0`.
    #[must_use]
    pub fn warmth(&self) -> f64 {
        self.pages.len() as f64 / self.config.entries.max(1) as f64
    }

    /// Translates `vaddr`; returns the added latency (0 on a hit, the
    /// page-walk penalty on a miss) and installs the translation.
    pub fn access(&mut self, vaddr: u64) -> u64 {
        self.access_page(self.page_of(vaddr))
    }

    /// [`access`](Self::access) after page extraction.
    fn access_page(&mut self, page: u64) -> u64 {
        self.clock += 1;
        let clock = self.clock;
        // Same-page streak: re-stamping the last-hit slot is exactly what
        // the scan below would do after finding it.
        if self.pages.get(self.last_hit) == Some(&page) {
            self.hits += 1;
            self.stamps[self.last_hit] = clock;
            return 0;
        }
        // Resident pages are unique, so the first match is the only match —
        // identical to the scalar `position` scan. Scan-hit positions are
        // heavily front-biased (fills start at slot 0, so the hottest pages
        // occupy the earliest slots; measured mean hit position on mcf is
        // ~1.6), which makes a well-predicted scalar early-exit over the
        // first lane-width slots cheaper than handing the whole column to
        // the lane kernel. The kernel then covers the tail, which is the
        // part that matters on the full-column negative scan a miss takes.
        let head = self.pages.len().min(iss_simd::LANE_WIDTH);
        let scanned = self.pages[..head]
            .iter()
            .position(|&p| p == page)
            .or_else(|| iss_simd::find_eq(&self.pages[head..], page).map(|i| i + head));
        if let Some(idx) = scanned {
            self.hits += 1;
            self.stamps[idx] = clock;
            self.last_hit = idx;
            0
        } else {
            self.misses += 1;
            if self.pages.len() == self.config.entries {
                // Stamps come from a strictly increasing clock, so the
                // first-minimum lane scan picks the unique LRU victim. The
                // TLB is full here and `entries >= 1` is validated, so the
                // scan always finds one.
                let lru = iss_simd::min_index(&self.stamps).unwrap_or(0);
                self.pages[lru] = page;
                self.stamps[lru] = clock;
                self.last_hit = lru;
            } else {
                self.last_hit = self.pages.len();
                self.pages.push(page);
                self.stamps.push(clock);
            }
            self.config.miss_latency
        }
    }

    /// Translates a whole address column, appending each access's added
    /// latency to `latencies` (cleared first).
    ///
    /// State evolution — stamps, victims, hit/miss counters — is exactly the
    /// scalar [`access`](Self::access) loop over the same addresses. The
    /// batch entry exploits what that loop cannot see: accesses arrive in
    /// long same-page runs (a 64 KB page covers a thousand cache lines;
    /// ~73% of mcf's D-TLB accesses continue the previous access's page).
    /// A run continuation through the scalar path is guaranteed to take the
    /// last-hit branch — the previous access left `last_hit` pointing at its
    /// own page — and that branch does nothing but bump the clock and hit
    /// counters and rewrite the same stamp with each successive clock value.
    /// So the batch loop detects each run with a tight shift-and-compare
    /// scan, sends only the run head through `access_page`, and folds the
    /// `k - 1` continuations into one bulk counter update, one final stamp
    /// write (the monotone clock makes the last write the only one that
    /// survives), and a zero-fill of the latency column. Final state,
    /// counters and per-access latencies are bit-identical to the scalar
    /// loop; `batch_access_matches_scalar_loop` and the differential
    /// proptests pin the equivalence.
    pub fn access_batch(&mut self, vaddrs: &[u64], latencies: &mut Vec<u64>) {
        latencies.clear();
        latencies.reserve(vaddrs.len());
        let shift = self.page_shift;
        let mut i = 0usize;
        while i < vaddrs.len() {
            let page = vaddrs[i] >> shift;
            latencies.push(self.access_page(page));
            let mut j = i + 1;
            while j < vaddrs.len() && vaddrs[j] >> shift == page {
                j += 1;
            }
            let run = (j - i - 1) as u64;
            if run > 0 {
                self.clock += run;
                self.hits += run;
                self.stamps[self.last_hit] = self.clock;
                latencies.resize(latencies.len() + run as usize, 0);
            }
            i = j;
        }
    }

    /// Whether a translation for `vaddr` is resident (no side effects).
    #[must_use]
    pub fn contains(&self, vaddr: u64) -> bool {
        iss_simd::find_eq(&self.pages, self.page_of(vaddr)).is_some()
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut t = Tlb::new(&TlbConfig::default_dtlb());
        assert_eq!(t.access(0x1234), 30);
        assert_eq!(t.access(0x1238), 0, "same page must hit");
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn different_pages_miss_separately() {
        let mut t = Tlb::new(&TlbConfig::default_dtlb());
        t.access(0);
        assert_eq!(t.access(64 * 1024), 30);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let cfg = TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_latency: 10,
        };
        let mut t = Tlb::new(&cfg);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // touch page 0 -> page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x1000));
        assert!(t.contains(0x2000));
    }

    #[test]
    fn contains_has_no_side_effects() {
        let mut t = Tlb::new(&TlbConfig::default_itlb());
        t.access(0x4000);
        let stats = t.stats();
        assert!(t.contains(0x4000));
        assert!(!t.contains(0xdead_0000));
        assert_eq!(t.stats(), stats);
    }

    #[test]
    fn batch_access_matches_scalar_loop() {
        let cfg = TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_latency: 17,
        };
        // A pattern with streaks, revisits and capacity evictions.
        let addrs: Vec<u64> = (0..64u64)
            .map(|i| (i % 7) * 4096 + (i * 37) % 4096 + u64::from(i % 3 == 0) * 7 * 4096)
            .collect();
        let mut scalar = Tlb::new(&cfg);
        let expected: Vec<u64> = addrs.iter().map(|&a| scalar.access(a)).collect();
        let mut batched = Tlb::new(&cfg);
        let mut got = Vec::new();
        batched.access_batch(&addrs, &mut got);
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.resident_entries(), scalar.resident_entries());
        for &a in &addrs {
            assert_eq!(batched.contains(a), scalar.contains(a));
        }
    }

    #[test]
    fn same_page_streak_keeps_lru_exact() {
        // The last-hit fast path must stamp exactly like the scan would:
        // after a long streak on page 0, page 1 (not page 0) is the victim.
        let cfg = TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_latency: 10,
        };
        let mut t = Tlb::new(&cfg);
        t.access(0x0000);
        t.access(0x1000);
        for i in 0..10u64 {
            assert_eq!(t.access(i * 8), 0, "streak on page 0 must hit");
        }
        t.access(0x2000); // evicts page 1, the true LRU
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x1000));
    }

    #[test]
    #[should_panic(expected = "invalid TLB configuration")]
    fn zero_entries_panics() {
        let _ = Tlb::new(&TlbConfig {
            entries: 0,
            page_bytes: 4096,
            miss_latency: 10,
        });
    }
}
