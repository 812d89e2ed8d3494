//! Branch target buffer (BTB).
//!
//! The BTB caches branch targets so the front-end can redirect fetch without
//! waiting for the branch to execute. A taken branch whose target misses in
//! the BTB (or hits with a stale target, as happens for indirect branches)
//! costs a misprediction even if the direction was predicted correctly.

/// Set-associative branch target buffer with LRU replacement.
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    sets: Vec<Vec<BtbEntry>>,
    ways: usize,
    set_mask: u64,
    lookups: u64,
    hits: u64,
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    /// Lower value = more recently used.
    lru: u32,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `entries` total entries organized in `ways`-way
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, `ways` is zero, or
    /// `entries` is not divisible by `ways`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "entries must be a power of two"
        );
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must be divisible by ways"
        );
        let num_sets = entries / ways;
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        BranchTargetBuffer {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            set_mask: num_sets as u64 - 1,
            lookups: 0,
            hits: 0,
        }
    }

    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.set_mask) as usize
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.lookups += 1;
        let set_idx = self.set_index(pc);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|e| e.tag == pc) {
            self.hits += 1;
            let target = set[pos].target;
            // Touch LRU.
            let touched = set[pos].lru;
            for e in set.iter_mut() {
                if e.lru < touched {
                    e.lru += 1;
                }
            }
            set[pos].lru = 0;
            Some(target)
        } else {
            None
        }
    }

    /// Looks up the predicted target without updating LRU state or counters
    /// (used for side-effect-free "what would the front-end do" queries).
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<u64> {
        let set = &self.sets[self.set_index(pc)];
        set.iter().find(|e| e.tag == pc).map(|e| e.target)
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let ways = self.ways;
        let set_idx = self.set_index(pc);
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|e| e.tag == pc) {
            entry.target = target;
            return;
        }
        for e in set.iter_mut() {
            e.lru += 1;
        }
        if set.len() < ways {
            set.push(BtbEntry {
                tag: pc,
                target,
                lru: 0,
            });
        } else {
            // Evict the least recently used way.
            #[expect(
                clippy::expect_used,
                reason = "victim selection over a set proven non-empty one line above"
            )]
            let victim = set
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("set is non-empty");
            set[victim] = BtbEntry {
                tag: pc,
                target,
                lru: 0,
            };
        }
    }

    /// `(hits, lookups)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.lookups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut btb = BranchTargetBuffer::new(2048, 8);
        assert_eq!(btb.lookup(0x1000), None);
        btb.update(0x1000, 0x4000);
        assert_eq!(btb.lookup(0x1000), Some(0x4000));
        assert_eq!(btb.stats(), (1, 2));
    }

    #[test]
    fn target_update_overwrites() {
        let mut btb = BranchTargetBuffer::new(64, 4);
        btb.update(0x1000, 0x4000);
        btb.update(0x1000, 0x8000);
        assert_eq!(btb.lookup(0x1000), Some(0x8000));
    }

    #[test]
    fn capacity_eviction_is_lru() {
        // 4 sets x 2 ways; PCs mapping to the same set differ by 4*num_sets.
        let mut btb = BranchTargetBuffer::new(8, 2);
        let stride = 4 * 4;
        let a = 0x1000;
        let b = a + stride;
        let c = a + 2 * stride;
        btb.update(a, 1);
        btb.update(b, 2);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(btb.lookup(a), Some(1));
        btb.update(c, 3);
        assert_eq!(
            btb.lookup(a),
            Some(1),
            "a was most recently used and must survive"
        );
        assert_eq!(btb.lookup(b), None, "b must have been evicted");
        assert_eq!(btb.lookup(c), Some(3));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut btb = BranchTargetBuffer::new(8, 2);
        btb.update(0x1000, 1);
        btb.update(0x1004, 2);
        assert_eq!(btb.lookup(0x1000), Some(1));
        assert_eq!(btb.lookup(0x1004), Some(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = BranchTargetBuffer::new(100, 4);
    }
}
