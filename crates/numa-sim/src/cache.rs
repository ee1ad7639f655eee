//! Set-associative cache with LRU replacement.
//!
//! One implementation serves L1d, L2 and L3; the engine wires geometry and
//! latencies. Lines are identified by their line address (`vaddr /
//! line_bytes`); the model is virtually indexed throughout, which is sound
//! because the simulator gives every program run its own address space.

use crate::config::CacheGeometry;

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit {
        /// The line was installed by a prefetch and this is its first
        /// demand hit (used for `L2PrefetchHit` accounting).
        first_prefetch_hit: bool,
    },
    /// Line absent.
    Miss,
}

/// One packed way: everything a way holds, in eight bytes.
///
/// | bits    | field                                               |
/// |---------|-----------------------------------------------------|
/// | 0..8    | LRU rank within the set: 0 = most recently used     |
/// | 8       | valid                                               |
/// | 9       | dirty (modified; needs writeback on eviction)       |
/// | 10      | prefetched (set by prefetch installs, cleared on    |
/// |         | the first demand hit)                               |
/// | 11..64  | tag: the full line address                          |
///
/// The all-zero word is an empty way, so a zero-filled slot is an empty
/// set. The valid ways of a set hold the ranks `0..n` exactly once, so
/// the rank order is the order of their last touches — the same order
/// per-line LRU stamps would give.
type Way = u64;

const _: () = assert!(std::mem::size_of::<Way>() == 8);

const RANK_MASK: Way = 0xFF;
const VALID: Way = 1 << 8;
const DIRTY: Way = 1 << 9;
const PREFETCHED: Way = 1 << 10;
const TAG_SHIFT: u32 = 11;
/// Bits of a packed way that identify its line: tag and valid flag.
const KEY_MASK: Way = !(RANK_MASK | DIRTY | PREFETCHED);

/// Width of the packed tag. A line address is at most its byte address,
/// so every byte address below `1 << TAG_BITS` fits at any line size;
/// [`crate::program::Program::validate`] rejects programs whose regions
/// reach beyond it.
pub const TAG_BITS: u32 = 64 - TAG_SHIFT;

/// Highest associativity the 8-bit LRU rank can order.
pub const MAX_WAYS: u32 = 256;

/// The valid way holding `line`, without rank and state flags.
#[inline]
fn key(line: u64) -> Way {
    debug_assert!(line >> TAG_BITS == 0, "line {line:#x} overflows the tag");
    (line << TAG_SHIFT) | VALID
}

#[inline]
fn valid(w: Way) -> bool {
    w & VALID != 0
}

#[inline]
fn rank(w: Way) -> Way {
    w & RANK_MASK
}

/// Makes way `i` of `set` the most recently used: every valid way that
/// was more recent than it ages by one rank.
#[inline]
fn promote(set: &mut [Way], i: usize) {
    let r = rank(set[i]);
    if r == 0 {
        return;
    }
    for w in set.iter_mut() {
        if valid(*w) && rank(*w) < r {
            *w += 1;
        }
    }
    set[i] &= !RANK_MASK;
}

/// Empties way `i` of `set`, closing the gap it leaves in the ranks.
#[inline]
fn remove(set: &mut [Way], i: usize) {
    let r = rank(set[i]);
    set[i] = 0;
    for w in set.iter_mut() {
        if valid(*w) && rank(*w) > r {
            *w -= 1;
        }
    }
}

/// A set-associative, write-allocate, writeback cache with LRU replacement.
///
/// State is kept per set: each set carries the epoch it was last written
/// in and the slot its ways occupy, and a set from an older epoch is
/// logically empty. A probe of such a stale set answers `Miss` after
/// reading its 8-byte metadata word. Its first install of an epoch takes
/// the next free slot and clears it, so slots are handed out densely in
/// first-touch order: the way array holds only the sets a run touched,
/// however scattered their indices are, and keeps the largest such count
/// across runs instead of growing to `sets × ways`.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    /// `sets - 1` when `sets` is a power of two; 0 selects the modulo
    /// path (the DL580 L3 has 36864 sets, which is not a power of two).
    set_mask: u64,
    /// `slots × ways` packed ways; slot `s` holds ways `s·ways..(s+1)·ways`.
    entries: Vec<Way>,
    /// Per set: `[epoch it was last written in, its slot]`; epoch 0 =
    /// never.
    set_meta: Vec<[u32; 2]>,
    /// Slots handed out this epoch.
    used: u32,
    /// Current epoch: a set is live iff its `set_meta` epoch matches.
    /// Bumping this in [`SetAssocCache::reset`] empties every set in O(1)
    /// instead of rewriting the way array — which for the DL580 L3 is
    /// megabytes per simulated run.
    epoch: u32,
}

/// Result of installing a line: the evicted victim, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the evicted line.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs writeback).
    pub dirty: bool,
}

impl SetAssocCache {
    /// Builds a cache from its geometry. Arbitrary set counts are allowed
    /// (the DL580's 45 MiB 20-way L3 has 36864 sets); associativity is
    /// bounded by [`MAX_WAYS`].
    pub fn new(geo: CacheGeometry) -> Self {
        let sets = geo.sets() as usize;
        assert!(sets > 0, "cache must have at least one set");
        assert!(geo.ways > 0 && geo.ways <= MAX_WAYS);
        let ways = geo.ways as usize;
        SetAssocCache {
            sets,
            ways,
            line_bytes: geo.line_bytes as u64,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            entries: Vec::new(),
            set_meta: vec![[0; 2]; sets],
            used: 0,
            epoch: 1,
        }
    }

    /// Invalidates every line — equivalent to a freshly built cache, in
    /// O(1): the epoch bump makes every set stale, a stale set behaves
    /// exactly like an empty one, and every slot is free for reuse. On
    /// epoch wraparound the set metadata is cleared for real, so reuse
    /// counts are unbounded.
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.set_meta.fill([0; 2]);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.used = 0;
    }

    /// Bytes of way storage this epoch's sets occupy: one slot of
    /// `ways × 8` bytes per set touched since the last reset.
    pub(crate) fn used_bytes(&self) -> usize {
        self.used as usize * self.ways * std::mem::size_of::<Way>()
    }

    /// Line address for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// The ways of `set` if it is live this epoch.
    #[inline]
    fn live(&self, set: usize) -> Option<&[Way]> {
        let [epoch, slot] = self.set_meta[set];
        let base = slot as usize * self.ways;
        (epoch == self.epoch).then(|| &self.entries[base..base + self.ways])
    }

    /// Mutable [`Self::live`].
    #[inline]
    fn live_mut(&mut self, set: usize) -> Option<&mut [Way]> {
        let [epoch, slot] = self.set_meta[set];
        let base = slot as usize * self.ways;
        (epoch == self.epoch).then(|| &mut self.entries[base..base + self.ways])
    }

    /// The ways of `set`, made live: a stale set takes the next free slot
    /// (growing the way array by one slot when every slot is in use) and
    /// starts empty.
    #[inline]
    fn claim(&mut self, set: usize) -> &mut [Way] {
        let ways = self.ways;
        let [epoch, slot] = self.set_meta[set];
        let base = if epoch == self.epoch {
            slot as usize * ways
        } else {
            let base = self.used as usize * ways;
            if base == self.entries.len() {
                self.entries.resize(base + ways, 0);
            } else {
                self.entries[base..base + ways].fill(0);
            }
            self.set_meta[set] = [self.epoch, self.used];
            self.used += 1;
            base
        };
        &mut self.entries[base..base + ways]
    }

    /// Probes for the line containing `addr`, updating LRU on hit and
    /// marking dirty when `write` is set.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        let line = self.line_of(addr);
        let Some(set) = self.live_mut(self.set_of(line)) else {
            return Probe::Miss;
        };
        let key = key(line);
        let Some(i) = set.iter().position(|&w| w & KEY_MASK == key) else {
            return Probe::Miss;
        };
        let first_prefetch_hit = set[i] & PREFETCHED != 0;
        promote(set, i);
        set[i] &= !PREFETCHED;
        if write {
            set[i] |= DIRTY;
        }
        Probe::Hit { first_prefetch_hit }
    }

    /// Checks residency without updating any state.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let key = key(line);
        self.live(self.set_of(line))
            .is_some_and(|set| set.iter().any(|&w| w & KEY_MASK == key))
    }

    /// Installs the line containing `addr`, returning the eviction (if the
    /// victim way held a valid line). `prefetched` tags prefetch installs,
    /// `dirty` marks write-allocated lines.
    pub fn install(&mut self, addr: u64, prefetched: bool, dirty: bool) -> Option<Eviction> {
        let line = self.line_of(addr);
        let ways = self.ways;
        let set = self.claim(self.set_of(line));
        let key = key(line);

        // Already present (e.g. racing prefetch): refresh in place.
        if let Some(i) = set.iter().position(|&w| w & KEY_MASK == key) {
            promote(set, i);
            if dirty {
                set[i] |= DIRTY;
            }
            if !prefetched {
                set[i] &= !PREFETCHED;
            }
            return None;
        }

        // Choose victim: the first empty way, else the LRU one (rank
        // `ways - 1`, since a full set holds every rank).
        let victim = set
            .iter()
            .position(|&w| !valid(w))
            .or_else(|| set.iter().position(|&w| rank(w) == ways as Way - 1))
            .unwrap_or(0);
        let old = set[victim];
        let evicted = valid(old).then_some(Eviction {
            line_addr: old >> TAG_SHIFT,
            dirty: old & DIRTY != 0,
        });
        // Every other valid way was more recent than the victim (or the
        // victim was empty): all of them age by one. The victim's own
        // word is overwritten below.
        for w in set.iter_mut() {
            if valid(*w) {
                *w += 1;
            }
        }
        set[victim] = key | if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        evicted
    }

    /// Invalidates the line containing `addr` (coherence), returning whether
    /// it was present and dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let line = self.line_of(addr);
        let set = self.live_mut(self.set_of(line))?;
        let key = key(line);
        let i = set.iter().position(|&w| w & KEY_MASK == key)?;
        let dirty = set[i] & DIRTY != 0;
        remove(set, i);
        Some(dirty)
    }

    /// Evicts one pseudo-random way (used to model interrupt cache
    /// pollution); an empty way stays empty. `salt` seeds the choice
    /// deterministically.
    pub fn evict_random(&mut self, salt: u64) {
        let set = (salt % self.sets as u64) as usize;
        let way = (salt >> 32) as usize % self.ways;
        if let Some(set) = self.live_mut(set) {
            if valid(set[way]) {
                remove(set, way);
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        (0..self.sets)
            .filter_map(|s| self.live(s))
            .map(|set| set.iter().filter(|&&w| valid(w)).count())
            .sum()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }
}

/// The previous cache layout — 24-byte ways with a per-line LRU stamp and
/// epoch — kept as the reference model the packed layout must reproduce
/// probe for probe.
#[cfg(test)]
mod reference {
    use super::{Eviction, Probe};
    use crate::config::CacheGeometry;

    /// A line resident in the cache.
    #[derive(Debug, Clone, Copy)]
    struct LineEntry {
        tag: u64,
        /// LRU stamp; larger = more recently used.
        stamp: u64,
        /// Epoch the entry was written in; an entry from an older epoch is
        /// logically empty (see [`RefCache::reset`]).
        epoch: u32,
        /// Set by prefetch installs, cleared on first demand hit.
        prefetched: bool,
        /// Dirty (modified) state for writeback accounting.
        dirty: bool,
    }

    /// A set-associative, write-allocate, writeback cache with LRU replacement.
    #[derive(Debug, Clone)]
    pub struct RefCache {
        sets: usize,
        ways: usize,
        line_bytes: u64,
        /// `sets - 1` when `sets` is a power of two; 0 selects the modulo
        /// path (the DL580 L3 has 36864 sets, which is not a power of two).
        set_mask: u64,
        /// `sets × ways` entries; `tag == u64::MAX` marks an empty way.
        entries: Vec<LineEntry>,
        clock: u64,
        /// Current epoch: an entry is valid iff its `epoch` matches. Bumping
        /// this in [`RefCache::reset`] invalidates every line in O(1)
        /// instead of rewriting the entry array — which for the DL580 L3 is
        /// tens of megabytes per simulated run.
        pub(super) epoch: u32,
    }

    const EMPTY: u64 = u64::MAX;

    impl RefCache {
        /// Builds a cache from its geometry. Arbitrary set counts are allowed
        /// (the DL580's 45 MiB 20-way L3 has 36864 sets).
        pub fn new(geo: CacheGeometry) -> Self {
            let sets = geo.sets() as usize;
            assert!(sets > 0, "cache must have at least one set");
            assert!(geo.ways > 0);
            RefCache {
                sets,
                ways: geo.ways as usize,
                line_bytes: geo.line_bytes as u64,
                set_mask: if sets.is_power_of_two() {
                    sets as u64 - 1
                } else {
                    0
                },
                entries: vec![
                    LineEntry {
                        tag: EMPTY,
                        stamp: 0,
                        epoch: 0,
                        prefetched: false,
                        dirty: false
                    };
                    sets * geo.ways as usize
                ],
                clock: 0,
                epoch: 0,
            }
        }

        /// Invalidates every line and restarts the LRU clock — equivalent to
        /// a freshly built cache, in O(1). The epoch bump makes every
        /// existing entry stale, and stale ways behave exactly like empty
        /// ones in every probe and victim scan (a victim scan stops at the
        /// first empty-or-stale way, just as a fresh scan stops at the first
        /// empty one). On epoch wraparound the entry array is cleared for
        /// real, so reuse counts are unbounded.
        pub fn reset(&mut self) {
            self.clock = 0;
            if self.epoch == u32::MAX {
                for e in &mut self.entries {
                    *e = LineEntry {
                        tag: EMPTY,
                        stamp: 0,
                        epoch: 0,
                        prefetched: false,
                        dirty: false,
                    };
                }
                self.epoch = 0;
            }
            self.epoch += 1;
        }

        /// Line address for a byte address.
        #[inline]
        pub fn line_of(&self, addr: u64) -> u64 {
            addr / self.line_bytes
        }

        #[inline]
        fn set_of(&self, line: u64) -> usize {
            if self.set_mask != 0 {
                (line & self.set_mask) as usize
            } else {
                (line % self.sets as u64) as usize
            }
        }

        /// Probes for the line containing `addr`, updating LRU on hit and
        /// marking dirty when `write` is set.
        pub fn access(&mut self, addr: u64, write: bool) -> Probe {
            let line = self.line_of(addr);
            let set = self.set_of(line);
            self.clock += 1;
            let epoch = self.epoch;
            let base = set * self.ways;
            for e in &mut self.entries[base..base + self.ways] {
                if e.tag == line && e.epoch == epoch {
                    e.stamp = self.clock;
                    let first_prefetch_hit = e.prefetched;
                    e.prefetched = false;
                    if write {
                        e.dirty = true;
                    }
                    return Probe::Hit { first_prefetch_hit };
                }
            }
            Probe::Miss
        }

        /// Checks residency without updating any state.
        pub fn contains(&self, addr: u64) -> bool {
            let line = self.line_of(addr);
            let set = self.set_of(line);
            let base = set * self.ways;
            self.entries[base..base + self.ways]
                .iter()
                .any(|e| e.tag == line && e.epoch == self.epoch)
        }

        /// Installs the line containing `addr`, returning the eviction (if the
        /// victim way held a valid line). `prefetched` tags prefetch installs,
        /// `dirty` marks write-allocated lines.
        pub fn install(&mut self, addr: u64, prefetched: bool, dirty: bool) -> Option<Eviction> {
            let line = self.line_of(addr);
            let set = self.set_of(line);
            self.clock += 1;
            let epoch = self.epoch;
            let base = set * self.ways;

            // Already present (e.g. racing prefetch): refresh in place.
            for e in &mut self.entries[base..base + self.ways] {
                if e.tag == line && e.epoch == epoch {
                    e.stamp = self.clock;
                    e.dirty |= dirty;
                    e.prefetched &= prefetched;
                    return None;
                }
            }

            // Choose victim: any empty-or-stale way, else LRU.
            let mut victim = base;
            let mut best = u64::MAX;
            for (i, e) in self.entries[base..base + self.ways].iter().enumerate() {
                if e.tag == EMPTY || e.epoch != epoch {
                    victim = base + i;
                    break;
                }
                if e.stamp < best {
                    best = e.stamp;
                    victim = base + i;
                }
            }
            let evicted = {
                let v = &self.entries[victim];
                if v.tag == EMPTY || v.epoch != epoch {
                    None
                } else {
                    Some(Eviction {
                        line_addr: v.tag,
                        dirty: v.dirty,
                    })
                }
            };
            self.entries[victim] = LineEntry {
                tag: line,
                stamp: self.clock,
                epoch,
                prefetched,
                dirty,
            };
            evicted
        }

        /// Invalidates the line containing `addr` (coherence), returning whether
        /// it was present and dirty.
        pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
            let line = self.line_of(addr);
            let set = self.set_of(line);
            let epoch = self.epoch;
            let base = set * self.ways;
            for e in &mut self.entries[base..base + self.ways] {
                if e.tag == line && e.epoch == epoch {
                    let dirty = e.dirty;
                    e.tag = EMPTY;
                    e.dirty = false;
                    e.prefetched = false;
                    return Some(dirty);
                }
            }
            None
        }

        /// Evicts one pseudo-random valid line (used to model interrupt cache
        /// pollution). `salt` seeds the choice deterministically.
        pub fn evict_random(&mut self, salt: u64) {
            let set = (salt % self.sets as u64) as usize;
            let base = set * self.ways;
            let way = (salt >> 32) as usize % self.ways;
            let e = &mut self.entries[base + way];
            e.tag = EMPTY;
            e.dirty = false;
            e.prefetched = false;
        }

        /// Number of valid lines currently resident.
        pub fn occupancy(&self) -> usize {
            self.entries
                .iter()
                .filter(|e| e.tag != EMPTY && e.epoch == self.epoch)
                .count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use proptest::prelude::*;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = small();
        assert_eq!(c.access(0x100, false), Probe::Miss);
        assert!(c.install(0x100, false, false).is_none());
        assert!(matches!(c.access(0x100, false), Probe::Hit { .. }));
        // Same line, different byte.
        assert!(matches!(c.access(0x13F, false), Probe::Hit { .. }));
        // Next line misses.
        assert_eq!(c.access(0x140, false), Probe::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (set = line & 3):
        // lines 0, 4, 8 (addresses 0, 0x100, 0x200).
        c.install(0x000, false, false);
        c.install(0x100, false, false);
        // Touch line 0 so line 4 (0x100) is LRU.
        c.access(0x000, false);
        let ev = c.install(0x200, false, false).expect("must evict");
        assert_eq!(ev.line_addr, c.line_of(0x100));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.install(0x000, false, false);
        c.access(0x000, true); // dirty it
        c.install(0x100, false, false);
        let ev = c.install(0x200, false, false).unwrap();
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn prefetch_flag_cleared_on_first_hit() {
        let mut c = small();
        c.install(0x100, true, false);
        match c.access(0x100, false) {
            Probe::Hit { first_prefetch_hit } => assert!(first_prefetch_hit),
            other => panic!("{other:?}"),
        }
        match c.access(0x100, false) {
            Probe::Hit { first_prefetch_hit } => assert!(!first_prefetch_hit),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.install(0x100, false, false);
        c.access(0x100, true);
        assert_eq!(c.invalidate(0x100), Some(true));
        assert_eq!(c.invalidate(0x100), None);
        assert!(!c.contains(0x100));
    }

    #[test]
    fn occupancy_and_capacity() {
        let mut c = small();
        assert_eq!(c.capacity_lines(), 8);
        assert_eq!(c.occupancy(), 0);
        c.install(0x000, false, false);
        c.install(0x040, false, false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn reinstall_does_not_evict() {
        let mut c = small();
        c.install(0x100, false, false);
        assert!(c.install(0x100, false, true).is_none());
        // Dirty flag merged.
        assert_eq!(c.invalidate(0x100), Some(true));
    }

    #[test]
    fn evict_random_removes_at_most_one() {
        let mut c = small();
        c.install(0x000, false, false);
        c.install(0x040, false, false);
        let before = c.occupancy();
        c.evict_random(0xDEAD_BEEF_0000_0001);
        assert!(c.occupancy() >= before - 1);
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_cache() {
        // Dirty the cache thoroughly, reset, and check that a scripted
        // access sequence behaves identically to a never-used cache —
        // including victim choice and eviction reporting.
        let mut used = small();
        for i in 0..16u64 {
            used.install(i * 64, i % 3 == 0, i % 2 == 0);
            used.access(i * 64, i % 5 == 0);
        }
        used.reset();
        let mut fresh = small();
        assert_eq!(used.occupancy(), 0);
        for i in 0..16u64 {
            let addr = i * 64;
            assert_eq!(used.access(addr, false), fresh.access(addr, false), "{i}");
            assert_eq!(
                used.install(addr, false, i % 2 == 0),
                fresh.install(addr, false, i % 2 == 0),
                "{i}"
            );
        }
        assert_eq!(used.occupancy(), fresh.occupancy());
        // And a second reset keeps working (epochs advance).
        used.reset();
        assert_eq!(used.occupancy(), 0);
        assert_eq!(used.access(0, false), Probe::Miss);
    }

    /// Geometries for the reference comparison: power-of-two and modulo
    /// set indexing, direct-mapped through [`MAX_WAYS`]-way.
    const GEOMETRIES: [(u64, u32); 6] = [(4, 2), (3, 4), (1, 8), (5, 20), (2, 1), (1, MAX_WAYS)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed cache answers every operation exactly like the
        /// reference model, including across forced epoch wraparound.
        #[test]
        fn packed_cache_matches_the_reference_model(
            geo_pick in 0usize..GEOMETRIES.len(),
            epochs_left in 0u32..4,
            reset_gap in 1u64..256,
            ops in proptest::collection::vec(0u64..u64::MAX, 1..2000),
        ) {
            let (sets, ways) = GEOMETRIES[geo_pick];
            let geo = CacheGeometry {
                size_bytes: sets * ways as u64 * 64,
                ways,
                line_bytes: 64,
            };
            let mut packed = SetAssocCache::new(geo);
            let mut model = reference::RefCache::new(geo);
            // Three times the capacity in distinct lines. Half the ops walk
            // them in order, so even the widest sets fill and evict; the
            // other half pick at random and hit.
            let lines = sets * ways as u64 * 3;
            let mut walk = 0u64;
            let jump = ops.len() / 2;
            for (step, op) in ops.into_iter().enumerate() {
                if step == jump {
                    // Skip ahead to a few resets short of wraparound, with
                    // sets still written in the low epochs a wrap reuses.
                    packed.epoch = u32::MAX - epochs_left;
                    model.epoch = u32::MAX - epochs_left;
                }
                let line = if op & 0x40 != 0 {
                    walk += 1;
                    walk % lines
                } else {
                    (op >> 8) % lines
                };
                let addr = line * 64 + (op >> 40) % 64;
                let flag_a = op & 0x10 != 0;
                let flag_b = op & 0x20 != 0;
                match op % 16 {
                    0..=3 => prop_assert_eq!(
                        packed.access(addr, flag_a),
                        model.access(addr, flag_a),
                        "access, step {}", step
                    ),
                    4..=9 => prop_assert_eq!(
                        packed.install(addr, flag_a, flag_b),
                        model.install(addr, flag_a, flag_b),
                        "install, step {}", step
                    ),
                    10 | 11 => prop_assert_eq!(
                        packed.invalidate(addr),
                        model.invalidate(addr),
                        "invalidate, step {}", step
                    ),
                    12 => {
                        let salt = op.rotate_left(29);
                        packed.evict_random(salt);
                        model.evict_random(salt);
                    }
                    // Sparse resets in some cases, so that wide sets fill.
                    13 if (op >> 48) % reset_gap == 0 => {
                        packed.reset();
                        model.reset();
                    }
                    _ => prop_assert_eq!(
                        packed.contains(addr),
                        model.contains(addr),
                        "contains, step {}", step
                    ),
                }
                prop_assert_eq!(packed.occupancy(), model.occupancy(), "occupancy, step {}", step);
            }
        }
    }

    #[test]
    fn residency_tracks_the_sets_a_run_touches() {
        // The DL580 L3: 45 MiB, 20 ways, 36864 sets (modulo indexing).
        let mut c = SetAssocCache::new(CacheGeometry {
            size_bytes: 45 << 20,
            ways: 20,
            line_bytes: 64,
        });
        assert_eq!(c.sets, 36864);
        let slot_bytes = 20 * std::mem::size_of::<Way>();
        // `k` sets spread over the whole index range, two lines each;
        // `offset` moves the sets so a later run touches other ones.
        let touch = |c: &mut SetAssocCache, k: u64, offset: u64| {
            for i in 0..k {
                let line = i * (36864 / k) + offset;
                c.install(line * 64, false, false);
                c.install((line + 36864) * 64, false, true);
            }
        };
        touch(&mut c, 1024, 0);
        assert_eq!(c.entries.len(), 1024 * 20);
        assert_eq!(c.used_bytes(), 1024 * slot_bytes);
        assert_eq!(c.occupancy(), 2048);
        let capacity = c.entries.capacity();

        // A smaller run reuses slots: nothing grows, nothing stale shows.
        c.reset();
        touch(&mut c, 300, 7);
        assert_eq!(c.entries.len(), 1024 * 20);
        assert_eq!(c.entries.capacity(), capacity);
        assert_eq!(c.used_bytes(), 300 * slot_bytes);
        assert_eq!(c.occupancy(), 600);
        assert!(!c.contains(0));
        assert!(c.contains(7 * 64));

        // The same across a forced epoch wraparound.
        c.epoch = u32::MAX - 1;
        for (run, k) in [(0, 512), (1, 300), (2, 1024), (3, 16)] {
            c.reset();
            assert_eq!(c.occupancy(), 0, "run {run}");
            touch(&mut c, k, run);
            assert_eq!(c.entries.len(), 1024 * 20, "run {run}");
            assert_eq!(c.entries.capacity(), capacity, "run {run}");
            assert_eq!(c.used_bytes(), k as usize * slot_bytes, "run {run}");
            assert_eq!(c.occupancy(), 2 * k as usize, "run {run}");
        }
    }

    #[test]
    fn capacity_eviction_working_set_larger_than_cache() {
        let mut c = small();
        // 16 distinct lines into an 8-line cache: at most 8 survive.
        for i in 0..16u64 {
            c.install(i * 64, false, false);
        }
        assert_eq!(c.occupancy(), 8);
    }
}
