//! Data TLB with hardware page walks.
//!
//! Fig. 9's strongest correlation — "the L1D cache is locked due to TLB page
//! walks by the uncore" — requires the TLB to be a first-class part of the
//! model: a dTLB miss triggers a page walk that (a) costs
//! `LatencyConfig::page_walk` cycles, (b) counts `PageWalkCycles`, and
//! (c) emits one `L1dLocked` event, because the walker's accesses lock the
//! L1d against the core.
//!
//! The model is 4-way set-associative with LRU, like the L1 dTLBs of the
//! Haswell-EX parts in the paper's test system; with 64 entries the reach
//! is 256 KiB, so page-strided access patterns (column-major arrays,
//! scattered exchanges) thrash it exactly like real hardware, while two
//! interleaved sequential streams do not conflict.

/// One TLB way.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: u64,
    stamp: u64,
}

const INVALID: TlbEntry = TlbEntry {
    page: u64::MAX,
    stamp: 0,
};
const WAYS: usize = 4;

/// A 4-way set-associative data TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `sets × WAYS` entries.
    entries: Vec<TlbEntry>,
    /// Epoch each set was last filled in; 0 = never.
    set_epochs: Vec<u32>,
    set_mask: u64,
    clock: u64,
    /// Current epoch: a set is live iff its `set_epochs` entry matches,
    /// which makes a full flush O(1). A stale set is cleared to invalid
    /// stamp-0 ways on its first fill — exactly what a real flush would
    /// have left behind.
    epoch: u32,
}

impl Tlb {
    /// Creates a TLB with `entries` slots (rounded up so the set count is
    /// a power of two).
    pub fn new(entries: u32) -> Self {
        let sets = (entries.max(1) as u64)
            .div_ceil(WAYS as u64)
            .next_power_of_two();
        Tlb {
            entries: vec![INVALID; (sets as usize) * WAYS],
            set_epochs: vec![0; sets as usize],
            set_mask: sets - 1,
            clock: 0,
            epoch: 1,
        }
    }

    /// Restores the freshly-built state: everything invalid, clock at 0.
    /// Used when a simulation run recycles per-core state; `flush`
    /// deliberately keeps the clock, because a mid-run context switch
    /// does not rewind time.
    pub fn reset(&mut self) {
        self.clock = 0;
        self.flush();
    }

    /// Looks up `page`; returns true on hit. On miss the LRU way of the
    /// set is filled (the page walk is accounted by the caller).
    #[inline]
    pub fn lookup(&mut self, page: u64) -> bool {
        let set_idx = (page & self.set_mask) as usize;
        self.clock += 1;
        let set = &mut self.entries[set_idx * WAYS..(set_idx + 1) * WAYS];
        if self.set_epochs[set_idx] != self.epoch {
            set.fill(INVALID);
            self.set_epochs[set_idx] = self.epoch;
        }
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, e) in set.iter_mut().enumerate() {
            if e.page == page {
                e.stamp = self.clock;
                return true;
            }
            if e.stamp < oldest {
                oldest = e.stamp;
                victim = i;
            }
        }
        set[victim] = TlbEntry {
            page,
            stamp: self.clock,
        };
        false
    }

    /// Invalidates one page (TLB shootdown on migration/free).
    pub fn shootdown(&mut self, page: u64) -> bool {
        let set_idx = (page & self.set_mask) as usize;
        if self.set_epochs[set_idx] != self.epoch {
            return false;
        }
        let set = &mut self.entries[set_idx * WAYS..(set_idx + 1) * WAYS];
        match set.iter_mut().find(|e| e.page == page) {
            Some(e) => {
                *e = INVALID;
                true
            }
            None => false,
        }
    }

    /// Flushes everything (full shootdown / context switch) in O(1) via
    /// an epoch bump; on wraparound the set epochs are cleared for real.
    pub fn flush(&mut self) {
        if self.epoch == u32::MAX {
            self.set_epochs.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries
            .chunks(WAYS)
            .zip(&self.set_epochs)
            .filter(|&(_, &e)| e == self.epoch)
            .map(|(set, _)| set.iter().filter(|e| e.page != INVALID.page).count())
            .sum()
    }

    /// Static-analysis helper: whether a working set of *distinct* `pages`
    /// provably fits a TLB of `entries` slots without conflict evictions —
    /// i.e. no set is claimed by more than its ways. When true, a cold TLB
    /// misses each page exactly once; when false, conflict evictions can
    /// re-miss resident pages even below total capacity (see
    /// `five_way_conflict_evicts_lru`). `np-analysis` uses this to decide
    /// whether its dTLB-miss upper bound can be tight.
    pub fn fits_without_evictions(entries: u32, pages: impl Iterator<Item = u64>) -> bool {
        let sets = (entries.max(1) as u64)
            .div_ceil(WAYS as u64)
            .next_power_of_two();
        let mask = sets - 1;
        let mut per_set = std::collections::HashMap::new();
        for p in pages {
            let c = per_set.entry(p & mask).or_insert(0usize);
            *c += 1;
            if *c > WAYS {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut t = Tlb::new(64);
        assert!(!t.lookup(7));
        assert!(t.lookup(7));
    }

    #[test]
    fn two_aliasing_streams_coexist() {
        // Pages 64 apart map to the same set in a 16-set TLB; 4 ways hold
        // both streams without ping-ponging — the src/dst copy pattern.
        let mut t = Tlb::new(64);
        t.lookup(0);
        t.lookup(64);
        for _ in 0..10 {
            assert!(t.lookup(0));
            assert!(t.lookup(64));
        }
    }

    #[test]
    fn five_way_conflict_evicts_lru() {
        let mut t = Tlb::new(64); // 16 sets
                                  // Five pages in one set: 0, 16, 32, 48, 64.
        for p in [0u64, 16, 32, 48] {
            assert!(!t.lookup(p));
        }
        assert!(!t.lookup(64)); // evicts page 0 (LRU)
        assert!(!t.lookup(0)); // gone
        assert!(t.lookup(32)); // survivor
    }

    #[test]
    fn sequential_pages_fit_up_to_capacity() {
        let mut t = Tlb::new(64);
        for p in 0..64u64 {
            assert!(!t.lookup(p));
        }
        for p in 0..64u64 {
            assert!(t.lookup(p), "page {p} should still be resident");
        }
        assert_eq!(t.occupancy(), 64);
    }

    #[test]
    fn page_strided_thrash() {
        // 128 distinct pages into a 64-entry TLB: the second pass misses
        // everything — the column-major pathology.
        let mut t = Tlb::new(64);
        for p in 0..128u64 {
            t.lookup(p);
        }
        let hits = (0..128u64).filter(|&p| t.lookup(p)).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn shootdown_and_flush() {
        let mut t = Tlb::new(8);
        t.lookup(3);
        assert!(t.shootdown(3));
        assert!(!t.shootdown(3));
        t.lookup(1);
        t.lookup(2);
        t.flush();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn reset_matches_a_fresh_tlb() {
        let mut used = Tlb::new(16);
        for p in 0..40u64 {
            used.lookup(p);
        }
        used.reset();
        let mut fresh = Tlb::new(16);
        assert_eq!(used.occupancy(), 0);
        // Same miss/hit/eviction pattern as a never-used TLB, including
        // the conflict-eviction order within a set.
        for p in (0..40u64).chain(0..40) {
            assert_eq!(used.lookup(p), fresh.lookup(p), "page {p}");
        }
        assert_eq!(used.occupancy(), fresh.occupancy());
    }

    #[test]
    fn flush_survives_epoch_wraparound() {
        let mut t = Tlb::new(16);
        t.epoch = u32::MAX - 1;
        for round in 0..4u64 {
            for p in 0..8u64 {
                assert!(!t.lookup(p + round), "round {round} page {p}");
            }
            assert_eq!(t.occupancy(), 8);
            t.flush();
            assert_eq!(t.occupancy(), 0);
        }
    }

    #[test]
    fn small_tlb_rounds_up_sets() {
        let mut t = Tlb::new(5); // 2 sets x 4 ways = 8 entries
        for p in 0..8u64 {
            assert!(!t.lookup(p));
        }
        assert_eq!(t.occupancy(), 8);
    }
}
