//! MESI-style coherence directory.
//!
//! Tracks, per cache line, which cores may hold the line in their private
//! (L1+L2) caches and whether one of them holds it modified. The engine
//! consults the directory on every private-cache miss and on every write to
//! a potentially-shared line, producing the coherence events the paper's
//! NUMA analysis needs: `HitmTransfer` (modified line served
//! cache-to-cache, perf c2c's headline event), `CoherenceInvalidation` and
//! `SnoopRequest`.
//!
//! The directory is a superset tracker: entries are cleaned when dirty
//! lines are written back on eviction, and spurious sharers (lines silently
//! evicted clean) only cost extra snoops, never correctness — the same
//! trade real directory caches make.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What the directory found when a core requested a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirLookup {
    /// No other private cache holds the line.
    Uncached,
    /// Other cores hold it clean; `sharer_count` of them.
    Shared {
        /// Number of other sharers.
        sharer_count: u32,
    },
    /// Another core holds it modified — a HITM transfer is required.
    Modified {
        /// The owning core.
        owner: u32,
    },
}

/// Multiply-and-fold hash for line addresses: the multiply scatters keys
/// into the high bits and the fold brings those down to the low bits the
/// table indexes by. The keys are line addresses of programs built in
/// process, never outside input, so SipHash's flooding resistance buys
/// nothing; and the directory is never iterated, so the hash cannot
/// reorder any output.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, line: u64) {
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

const NO_OWNER: u32 = u32::MAX;

/// The machine-wide coherence directory.
///
/// Each tracked line owns a slot: a sharer mask of one bit per core of
/// the topology, stored as `words` consecutive `u64`s of `sharers`, and a
/// dirty owner in `owners`. Slots of lines nobody holds any more go to a
/// free list and are reused.
#[derive(Debug)]
pub struct Directory {
    /// `u64` words per sharer mask.
    words: usize,
    slots: HashMap<u64, u32, BuildHasherDefault<LineHasher>>,
    sharers: Vec<u64>,
    /// Core holding the line modified, or `NO_OWNER`.
    owners: Vec<u32>,
    free: Vec<u32>,
    /// The mask [`Directory::record_write`] last returned.
    invalidated: Vec<u64>,
}

/// Iterates the core ids set in a sharer mask, in ascending order.
pub fn cores_in(mask: &[u64]) -> impl Iterator<Item = u32> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let c = bits.trailing_zeros();
                bits &= bits - 1;
                w as u32 * 64 + c
            })
        })
    })
}

impl Directory {
    /// Creates an empty directory for a machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        let words = cores.div_ceil(64).max(1);
        Directory {
            words,
            slots: HashMap::default(),
            sharers: Vec::new(),
            owners: Vec::new(),
            free: Vec::new(),
            invalidated: vec![0; words],
        }
    }

    /// The slot tracking `line`, allocated empty if the line is untracked.
    fn slot(&mut self, line: u64) -> usize {
        let next = self.owners.len() as u32;
        let slot = *self
            .slots
            .entry(line)
            .or_insert_with(|| self.free.pop().unwrap_or(next)) as usize;
        if slot == self.owners.len() {
            self.owners.push(NO_OWNER);
            self.sharers.resize(self.sharers.len() + self.words, 0);
        }
        slot
    }

    /// What `core` finds in `slot` before registering itself.
    fn lookup(&self, slot: usize, core: u32) -> DirLookup {
        let owner = self.owners[slot];
        if owner != NO_OWNER && owner != core {
            return DirLookup::Modified { owner };
        }
        let mask = &self.sharers[slot * self.words..(slot + 1) * self.words];
        let (w, bit) = (core as usize / 64, 1u64 << (core % 64));
        let others = mask.iter().map(|m| m.count_ones()).sum::<u32>() - (mask[w] & bit != 0) as u32;
        if others == 0 {
            DirLookup::Uncached
        } else {
            DirLookup::Shared {
                sharer_count: others,
            }
        }
    }

    /// Records that `core` now holds `line` (read access). Returns what the
    /// requester found, *before* its own registration.
    pub fn record_read(&mut self, line: u64, core: u32) -> DirLookup {
        let slot = self.slot(line);
        let result = self.lookup(slot, core);
        // A read downgrades a foreign dirty owner to sharer.
        if self.owners[slot] != core {
            self.owners[slot] = NO_OWNER;
        }
        self.sharers[slot * self.words + core as usize / 64] |= 1 << (core % 64);
        result
    }

    /// Records that `core` writes `line`: all other sharers are
    /// invalidated. Returns the lookup before the write and the mask of
    /// invalidated cores (iterate it with [`cores_in`]).
    pub fn record_write(&mut self, line: u64, core: u32) -> (DirLookup, &[u64]) {
        let slot = self.slot(line);
        let before = self.lookup(slot, core);
        let (w, bit) = (core as usize / 64, 1u64 << (core % 64));
        let mask = &mut self.sharers[slot * self.words..(slot + 1) * self.words];
        self.invalidated.copy_from_slice(mask);
        self.invalidated[w] &= !bit;
        mask.fill(0);
        mask[w] = bit;
        self.owners[slot] = core;
        (before, &self.invalidated)
    }

    /// Records that `core` dropped `line` from its private caches
    /// (eviction/writeback). Cleans the entry when nobody holds it.
    pub fn record_evict(&mut self, line: u64, core: u32) {
        let Some(&slot) = self.slots.get(&line) else {
            return;
        };
        let slot = slot as usize;
        let mask = &mut self.sharers[slot * self.words..(slot + 1) * self.words];
        mask[core as usize / 64] &= !(1 << (core % 64));
        if self.owners[slot] == core {
            self.owners[slot] = NO_OWNER;
        }
        if mask.iter().all(|&m| m == 0) {
            self.slots.remove(&line);
            self.owners[slot] = NO_OWNER;
            self.free.push(slot as u32);
        }
    }

    /// Number of tracked lines (for memory/diagnostic purposes).
    pub fn tracked_lines(&self) -> usize {
        self.slots.len()
    }

    /// Clears all state (between runs).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.sharers.clear();
        self.owners.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reader_finds_uncached() {
        let mut d = Directory::new(128);
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
        assert_eq!(d.record_read(10, 1), DirLookup::Shared { sharer_count: 1 });
        assert_eq!(d.record_read(10, 2), DirLookup::Shared { sharer_count: 2 });
    }

    #[test]
    fn re_read_by_same_core_is_uncached_view() {
        let mut d = Directory::new(128);
        d.record_read(10, 0);
        // Core 0 reading again sees no *other* sharers.
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new(128);
        d.record_read(10, 0);
        d.record_read(10, 1);
        d.record_read(10, 2);
        let (before, inv) = d.record_write(10, 0);
        assert_eq!(before, DirLookup::Shared { sharer_count: 2 });
        assert_eq!(cores_in(inv).collect::<Vec<_>>(), vec![1, 2]);
        // Subsequent read by core 1 sees a modified line at core 0.
        assert_eq!(d.record_read(10, 1), DirLookup::Modified { owner: 0 });
    }

    #[test]
    fn read_downgrades_dirty_owner() {
        let mut d = Directory::new(128);
        d.record_write(10, 0);
        assert_eq!(d.record_read(10, 1), DirLookup::Modified { owner: 0 });
        // After the downgrade the line is shared, not modified.
        assert_eq!(d.record_read(10, 2), DirLookup::Shared { sharer_count: 2 });
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = Directory::new(128);
        d.record_write(10, 0);
        let (before, inv) = d.record_write(10, 1);
        assert_eq!(before, DirLookup::Modified { owner: 0 });
        assert_eq!(cores_in(inv).collect::<Vec<_>>(), vec![0]);
        let (before2, _) = d.record_write(10, 1);
        assert_eq!(before2, DirLookup::Uncached); // sole owner rewrites
    }

    #[test]
    fn eviction_cleans_entries() {
        let mut d = Directory::new(128);
        d.record_read(10, 0);
        d.record_read(10, 1);
        assert_eq!(d.tracked_lines(), 1);
        d.record_evict(10, 0);
        assert_eq!(d.tracked_lines(), 1);
        d.record_evict(10, 1);
        assert_eq!(d.tracked_lines(), 0);
        // Fresh read is uncached again.
        assert_eq!(d.record_read(10, 2), DirLookup::Uncached);
    }

    #[test]
    fn evicting_dirty_owner_clears_dirty_state() {
        let mut d = Directory::new(128);
        d.record_write(10, 3);
        d.record_evict(10, 3);
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
    }

    #[test]
    fn high_core_ids_supported() {
        let mut d = Directory::new(128);
        d.record_read(10, 127);
        assert_eq!(d.record_read(10, 0), DirLookup::Shared { sharer_count: 1 });
    }

    #[test]
    fn masks_are_sized_to_the_topology() {
        // 144 cores: core 130 must not alias core 2 (130 mod 128).
        let mut d = Directory::new(144);
        assert_eq!(d.record_read(10, 130), DirLookup::Uncached);
        assert_eq!(d.record_read(10, 2), DirLookup::Shared { sharer_count: 1 });
        let (before, inv) = d.record_write(10, 2);
        assert_eq!(before, DirLookup::Shared { sharer_count: 1 });
        assert_eq!(cores_in(inv).collect::<Vec<_>>(), vec![130]);
        assert_eq!(d.record_read(10, 143), DirLookup::Modified { owner: 2 });
    }

    #[test]
    fn freed_slots_are_reused_clean() {
        let mut d = Directory::new(8);
        d.record_write(10, 3);
        d.record_evict(10, 3);
        // Line 11 takes line 10's freed slot and must start empty.
        assert_eq!(d.record_read(11, 0), DirLookup::Uncached);
        assert_eq!(d.tracked_lines(), 1);
        d.clear();
        assert_eq!(d.tracked_lines(), 0);
        assert_eq!(d.record_read(10, 5), DirLookup::Uncached);
    }
}
