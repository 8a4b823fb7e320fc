//! Set-associative cache with true-LRU replacement.
//!
//! This is the cache model used for the private L1s and the shared L2 of the
//! CMP simulator, and for the `SetAssoc` working-set profiling baseline of
//! Section 6.1.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use ccs_dag::{AccessKind, MemRef};

/// Result of probing the cache with one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address evicted to make room for the fill (misses only).
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (requires a write-back).
    pub writeback: bool,
}

impl AccessOutcome {
    fn hit() -> Self {
        AccessOutcome {
            hit: true,
            evicted: None,
            writeback: false,
        }
    }
}

/// Tag stored in empty ways.  Line addresses are at least 4-aligned
/// (enforced by [`CacheConfig::validate`]), so `tag ^ line` against this
/// all-ones sentinel always keeps bit 1 set and can never look like a
/// match even with the dirty bit folded into bit 0; the access paths
/// `debug_assert` the alignment anyway.
const INVALID_LINE: u64 = u64::MAX;

/// Dirty flag, folded into bit 0 of the tag (free because lines are at
/// least 4-aligned).  One array to scan and rotate instead of two.
const DIRTY_BIT: u64 = 1;

/// A set-associative cache with per-set true-LRU replacement and write-back,
/// write-allocate semantics.
///
/// This sits on the simulator's per-reference hot path, so both layout and
/// algorithm are tuned for it:
///
/// * the line tags of a set are `associativity` contiguous `u64`s in a
///   single flat array (no per-set allocations), and the set index is a
///   shift/mask when the set count is a power of two — no divisions;
/// * recency is encoded **positionally**: each set is kept in MRU→LRU
///   order (empty ways, tagged `INVALID_LINE`, form the suffix).  A touch
///   rotates the way to the front; the victim is always the *last* way.
///   This is exactly true-LRU — the per-set order is the classic LRU stack
///   — but needs no timestamps, no clock, and no argmin scan on misses.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Tag per way (`line | DIRTY_BIT`), `num_sets × assoc` flat; each set
    /// ordered MRU→LRU with `INVALID_LINE` (empty) ways as the suffix.
    lines: Vec<u64>,
    stats: CacheStats,
    assoc: usize,
    /// `line_size.trailing_zeros()`: line address → line number.
    line_shift: u32,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    num_sets: u64,
}

impl SetAssocCache {
    /// Create an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let num_sets = config.num_sets();
        let assoc = config.associativity as usize;
        let ways = (num_sets * assoc as u64) as usize;
        SetAssocCache {
            config,
            lines: vec![INVALID_LINE; ways],
            stats: CacheStats::default(),
            assoc,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            num_sets,
        }
    }

    /// Start index of the set holding `line` in the flat way arrays.
    #[inline]
    fn set_base(&self, line: u64) -> usize {
        let line_no = line >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line_no & mask,
            None => line_no % self.num_sets,
        };
        set as usize * self.assoc
    }

    /// Position of `line` within its set (0 = MRU), if resident.  The MRU
    /// way is checked first — re-touches of the most recent line (fills,
    /// multi-line ops) are the most common probe by far.  The remainder is
    /// scanned without early exit so LLVM can vectorise the tag compares —
    /// the scaled-down design points routinely run 16-way sets where this
    /// loop is the hottest code in the simulator.
    #[inline]
    fn find_pos(&self, base: usize, line: u64) -> Option<usize> {
        let set = &self.lines[base..base + self.assoc];
        // `tag ^ line` is 0 or DIRTY_BIT on a match (line has bit 0
        // clear) and > DIRTY_BIT on a mismatch: two distinct aligned
        // lines differ above bit 1, and the empty sentinel keeps bit 1
        // set against any 4-aligned line.
        if set[0] ^ line <= DIRTY_BIT {
            return Some(0);
        }
        let mut found = usize::MAX;
        for (i, &tag) in set.iter().enumerate().skip(1) {
            if tag ^ line <= DIRTY_BIT {
                found = i;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Move the way at set position `pos` to the MRU front, shifting the
    /// more-recent ways down one place (a single forward memmove).
    #[inline]
    fn touch(&mut self, base: usize, pos: usize) {
        let tag = self.lines[base + pos];
        self.lines.copy_within(base..base + pos, base + 1);
        self.lines[base] = tag;
    }

    /// Allocate `line` at the MRU front of its set, pushing every other way
    /// down and dropping the LRU (last) way — an empty way if the set has
    /// one (empties are the suffix of the order), the true-LRU victim
    /// otherwise.  Returns the eviction outcome.
    #[inline]
    fn allocate_front(&mut self, base: usize, line: u64, dirty: bool) -> AccessOutcome {
        let last = base + self.assoc - 1;
        let evicted = self.lines[last];
        self.lines.copy_within(base..last, base + 1);
        self.lines[base] = line | (dirty as u64);
        let mut outcome = AccessOutcome {
            hit: false,
            evicted: None,
            writeback: false,
        };
        if evicted != INVALID_LINE {
            let evicted_dirty = evicted & DIRTY_BIT != 0;
            self.stats.record_eviction(evicted_dirty);
            outcome.evicted = Some(evicted & !DIRTY_BIT);
            outcome.writeback = evicted_dirty;
        }
        outcome
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (the contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Flush the contents (cold cache) without touching statistics.
    pub fn flush(&mut self) {
        self.lines.fill(INVALID_LINE);
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|&&t| t != INVALID_LINE).count()
    }

    /// The way array (`line | dirty` per way, each set MRU→LRU, empty ways
    /// `u64::MAX`), for lockstep tests against the compiled cache.
    #[cfg(test)]
    pub(crate) fn ways(&self) -> &[u64] {
        &self.lines
    }

    /// Probe the cache with the line containing `addr`.
    pub fn access_addr(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let line = self.config.line_of(addr);
        self.access_line(line, kind)
    }

    /// Probe the cache with an already line-aligned address.
    #[inline]
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        debug_assert_eq!(
            line % self.config.line_size,
            0,
            "address must be line-aligned"
        );
        debug_assert_ne!(line, INVALID_LINE, "line collides with the empty tag");
        let is_write = kind.is_write();
        let base = self.set_base(line);

        if let Some(pos) = self.find_pos(base, line) {
            self.touch(base, pos);
            self.lines[base] |= is_write as u64;
            self.stats.record(true, is_write);
            AccessOutcome::hit()
        } else {
            // Miss: allocate, evicting the LRU way if the set is full.
            self.stats.record(false, is_write);
            self.allocate_front(base, line, is_write)
        }
    }

    /// Probe the cache with every line touched by a memory reference,
    /// returning the number of misses.
    pub fn access_ref(&mut self, mem: &MemRef) -> u32 {
        let mut misses = 0;
        for line in mem.lines(self.config.line_size) {
            if !self.access_line(line, mem.kind).hit {
                misses += 1;
            }
        }
        misses
    }

    /// Record a *filtered* read hit: the caller has proved (e.g. via a
    /// one-entry MRU filter in front of the cache) that the line is at the
    /// MRU position of its set, so probing would be a state no-op — a read
    /// hit on the MRU way neither reorders the set nor changes the dirty
    /// bit.  Only the statistics move, exactly as [`access_line`] would
    /// move them for that hit.
    ///
    /// [`access_line`]: SetAssocCache::access_line
    #[inline]
    pub fn record_mru_read_hit(&mut self) {
        self.stats.record(true, false);
    }

    /// Insert a line (e.g. a fill returning from the next level) without
    /// recording a probe in the statistics.  If the line is already present
    /// its LRU position and dirty bit are refreshed; otherwise it is
    /// allocated, evicting the LRU way if necessary (the eviction *is*
    /// recorded).  Returns the eviction outcome.
    #[inline]
    pub fn fill_line(&mut self, line: u64, dirty: bool) -> AccessOutcome {
        debug_assert_eq!(
            line % self.config.line_size,
            0,
            "address must be line-aligned"
        );
        debug_assert_ne!(line, INVALID_LINE, "line collides with the empty tag");
        let base = self.set_base(line);
        if let Some(pos) = self.find_pos(base, line) {
            self.touch(base, pos);
            self.lines[base] |= dirty as u64;
            AccessOutcome::hit()
        } else {
            self.allocate_front(base, line, dirty)
        }
    }

    /// Whether a line is currently resident (does not update LRU state or
    /// statistics).
    #[inline]
    pub fn contains_line(&self, line: u64) -> bool {
        self.find_pos(self.set_base(line), line).is_some()
    }

    /// Invalidate a line if present; returns `true` if it was present and
    /// dirty (i.e. an invalidation write-back would be needed).
    #[inline]
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let base = self.set_base(line);
        match self.find_pos(base, line) {
            Some(pos) => {
                let was_dirty = self.lines[base + pos] & DIRTY_BIT != 0;
                // Remove the way, keeping the rest of the recency order and
                // restoring the empties-as-suffix invariant.
                let last = base + self.assoc - 1;
                self.lines.copy_within(base + pos + 1..last + 1, base + pos);
                self.lines[last] = INVALID_LINE;
                was_dirty
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 lines of 64 B, 2-way => 2 sets.
        SetAssocCache::new(CacheConfig::new(256, 64, 2, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.access_addr(0, AccessKind::Read).hit);
        assert!(
            c.access_addr(32, AccessKind::Read).hit,
            "same line must hit"
        );
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache();
        // Lines 0, 128, 256 all map to set 0 (set = (addr/64) % 2).
        c.access_line(0, AccessKind::Read);
        c.access_line(128, AccessKind::Read);
        // Touch 0 again so 128 becomes LRU.
        c.access_line(0, AccessKind::Read);
        let out = c.access_line(256, AccessKind::Read);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(128));
        assert!(c.contains_line(0));
        assert!(!c.contains_line(128));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small_cache();
        c.access_line(0, AccessKind::Write);
        c.access_line(128, AccessKind::Read);
        c.access_line(128, AccessKind::Read);
        // Evict line 0 (LRU, dirty).
        let out = c.access_line(256, AccessKind::Read);
        assert_eq!(out.evicted, Some(0));
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small_cache();
        c.access_line(0, AccessKind::Read); // set 0
        c.access_line(64, AccessKind::Read); // set 1
        c.access_line(128, AccessKind::Read); // set 0
        c.access_line(192, AccessKind::Read); // set 1
                                              // All four lines fit: no evictions.
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn access_ref_splits_lines() {
        let mut c = small_cache();
        let r = MemRef::read(60, 10); // straddles lines 0 and 64
        assert_eq!(c.access_ref(&r), 2);
        assert_eq!(c.access_ref(&r), 0);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access_line(0, AccessKind::Write);
        assert!(c.invalidate_line(0), "dirty line reported on invalidation");
        assert!(!c.contains_line(0));
        assert!(!c.invalidate_line(0));
        assert!(!c.access_line(0, AccessKind::Read).hit);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache();
        c.access_line(0, AccessKind::Read);
        c.access_line(64, AccessKind::Read);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access_line(0, AccessKind::Read).hit);
    }

    #[test]
    fn fill_line_does_not_count_as_probe() {
        let mut c = small_cache();
        c.fill_line(0, false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains_line(0));
        assert!(c.access_line(0, AccessKind::Read).hit);
        // Filling a full set evicts and records the eviction.
        c.fill_line(128, true);
        let out = c.fill_line(256, false);
        assert!(out.evicted.is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn fully_associative_behaves_as_lru() {
        let cfg = CacheConfig::fully_associative(4 * 64, 64, 1);
        let mut c = SetAssocCache::new(cfg);
        for i in 0..4u64 {
            c.access_line(i * 64, AccessKind::Read);
        }
        // Re-touch line 0, then bring in a 5th line: victim must be line 1.
        c.access_line(0, AccessKind::Read);
        let out = c.access_line(4 * 64, AccessKind::Read);
        assert_eq!(out.evicted, Some(64));
    }
}
