//! The id-native compiled cache: the simulator's set-associative, true-LRU,
//! write-back cache, probed by `(set, u32 tag)` pairs that callers
//! resolved from dense line ids up front.
//!
//! The CMP simulator's hot loop probes a cache once per line-granular
//! trace step.  With the precompiled line streams of `ccs-dag::stream`
//! every step already carries a dense line id, and the per-geometry
//! `set_index` lane maps that id straight to a set — so the address is
//! never needed: the *line id itself* is a perfect tag (two distinct
//! lines always have distinct ids, in any set), and it fits in 31 bits by
//! construction (`STEP_ID_MASK`).  [`CompiledCache`] exploits that:
//!
//! * tags are `u32`, so a 16-way set's tag array is a single 64-byte
//!   cache line on the host;
//! * a probe takes `(set, tag)` directly — no line masking, no shift/mask
//!   or modulo set indexing, no address table load;
//! * probes report a bare `bool` hit — eviction bookkeeping stays in the
//!   statistics, where the simulator reads it.
//!
//! Recency is **positional** true LRU: each set is kept MRU→LRU in one
//! flat array, a touch shifts the way to the front, the victim is always
//! the last way and empty ways form the suffix — the classic LRU stack,
//! with no timestamps, no clock and no argmin scan on a miss.  The dirty
//! bit folds into tag bit 0, so tags passed in must be *pre-shifted* line
//! ids — [`line_tag`] (`id << 1`) — leaving bit 0 free.  Every statistics
//! decision (hit/miss, eviction, write-back) and the per-set recency order
//! match the executable spec [`RefCache`] probe for probe (line id `i` ↔
//! line address `i × line size`): `tests::lockstep_with_setassoc` pins
//! that, and the engine-equivalence suite pins the engines built on the
//! two metrics-identical.
//!
//! [`RefCache`]: crate::reference::RefCache

use crate::stats::CacheStats;

/// The tag a caller passes for line id `id`: the id shifted left one bit
/// so the dirty flag can fold into bit 0.  Ids are dense and unique per
/// line, which makes them valid tags for *any* set geometry.
///
/// The id must be **strictly below `0x7FFF_FFFF`** (the line-stream
/// compiler's `STEP_ID_MASK` bound, which its interner enforces): the
/// shift then cannot overflow, and the resulting tag stays at least 2
/// away from the empty-way sentinel (`u32::MAX`), so no tag can alias it
/// even with the dirty bit folded in.  The one 31-bit value *at* the
/// bound, `0x7FFF_FFFF`, would shift to `0xFFFF_FFFE` and falsely match
/// an empty way — hence the strict inequality, asserted here in debug
/// builds rather than trusted to the caller.
#[inline]
pub const fn line_tag(id: u32) -> u32 {
    debug_assert!(id < 0x7FFF_FFFF, "line id at/above the tag bound");
    id << 1
}

/// Tag stored in empty ways.  Real tags are pre-shifted ids strictly
/// below the [`line_tag`] bound, so `tag ^ INVALID_TAG > DIRTY_BIT`
/// always holds and an empty way can never look like a match even with
/// the dirty bit folded into bit 0.
const INVALID_TAG: u32 = u32::MAX;

/// Dirty flag, folded into bit 0 of the stored tag (free because
/// [`line_tag`] pre-shifts the id).
const DIRTY_BIT: u32 = 1;

/// `bit` if `stored` holds `tag` (clean or dirty), else 0.  Clearing the
/// folded dirty bit leaves the pre-shifted id, which equals `tag` exactly
/// on a match; the empty sentinel clears to `0xFFFF_FFFE`, above every
/// valid tag (see [`line_tag`]).
#[inline(always)]
fn lane_bit(stored: u32, tag: u32, bit: u32) -> u32 {
    if stored & !DIRTY_BIT == tag {
        bit
    } else {
        0
    }
}

/// Bit `i` set iff way `i` of `ways` (at most 64 of them) holds `tag`,
/// clean or dirty.  The ways are compared in fixed 4-way chunks of
/// independent compares, which LLVM lowers to one vector compare and a
/// mask extract per chunk; a set whose size is not a multiple of four
/// compares its last ways one by one.
#[inline(always)]
fn match_mask(ways: &[u32], tag: u32) -> u64 {
    debug_assert!(ways.len() <= 64, "match masks cover at most 64 ways");
    let mut mask = 0u64;
    let mut i = 0;
    while i + 4 <= ways.len() {
        // Four independent selects of constant lane bits: the shape LLVM's
        // SLP vectoriser turns into one compare plus `movmskps` (and,
        // written out rather than as an iterator chain, cheap in debug
        // builds too).
        let nibble = lane_bit(ways[i], tag, 1)
            | lane_bit(ways[i + 1], tag, 2)
            | lane_bit(ways[i + 2], tag, 4)
            | lane_bit(ways[i + 3], tag, 8);
        mask |= u64::from(nibble) << i;
        i += 4;
    }
    while i < ways.len() {
        mask |= u64::from(lane_bit(ways[i], tag, 1)) << i;
        i += 1;
    }
    mask
}

/// Position of `tag` within `set` (0 = MRU), if resident.  Sets of up to
/// 64 ways take the lowest bit of the [`match_mask`]; wider sets fall back
/// to a scalar first-match scan.  A line is resident in at most one way,
/// so either answer is the only match.
#[inline(always)]
fn find_pos(set: &[u32], tag: u32) -> Option<usize> {
    if set.len() <= 64 {
        let mask = match_mask(set, tag);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    } else {
        set.iter().position(|&stored| stored & !DIRTY_BIT == tag)
    }
}

/// Move-to-front probe of one set: one shift of `ways[0..end]` down a
/// place, where `end` is the probed tag's position on a hit and the last
/// way on a miss, then the tag (dirty if `dirty`, or if its old copy was)
/// is installed at the MRU way.  Returns whether the probe hit and the
/// way the shift dropped (on a miss, `INVALID_TAG` when the set had a
/// free way).
///
/// Empty ways are always the suffix of the set, so shifting the whole
/// set and dropping the last way leaves exactly the array that rippling
/// down to the first empty way would: the ways past it were empty before
/// and are empty after, and the dropped way is empty (no eviction)
/// exactly when the set had a free way.
#[inline(always)]
fn move_to_front(ways: &mut [u32], tag: u32, dirty: bool) -> (bool, u32) {
    let pos = find_pos(ways, tag);
    let end = pos.unwrap_or(ways.len() - 1);
    let dropped = ways[end];
    ways.copy_within(..end, 1);
    ways[0] = match pos {
        Some(_) => tag | dirty as u32 | (dropped & DIRTY_BIT),
        None => tag | dirty as u32,
    };
    (pos.is_some(), dropped)
}

/// A set-associative, true-LRU, write-back cache probed by `(set, u32
/// tag)` instead of by address (see the module docs); the production
/// counterpart of [`RefCache`](crate::reference::RefCache).
#[derive(Clone, Debug)]
pub struct CompiledCache {
    /// Tag per way (`line_tag(id) | DIRTY_BIT`), `num_sets × assoc` flat;
    /// each set ordered MRU→LRU with `INVALID_TAG` (empty) ways as the
    /// suffix.
    tags: Vec<u32>,
    stats: CacheStats,
    assoc: usize,
}

impl CompiledCache {
    /// Create an empty (cold) cache of `num_sets` sets ×
    /// `associativity` ways.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(num_sets: u64, associativity: u32) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(associativity > 0, "associativity must be positive");
        let assoc = associativity as usize;
        CompiledCache {
            tags: vec![INVALID_TAG; (num_sets * assoc as u64) as usize],
            stats: CacheStats::default(),
            assoc,
        }
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
        self.tags.fill(INVALID_TAG);
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Heap bytes held by the tag array.
    pub fn heap_bytes(&self) -> u64 {
        (self.tags.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Start index of `set` in the flat way array.
    #[inline]
    fn set_base(&self, set: u32) -> usize {
        set as usize * self.assoc
    }

    /// Move-to-front probe of `set` (see [`move_to_front`]), recording a
    /// miss's eviction of a resident line.  Returns whether it hit.
    #[inline(always)]
    fn insert_front(&mut self, base: usize, tag: u32, dirty: bool) -> bool {
        let ways = &mut self.tags[base..base + self.assoc];
        // Every scaled design point's L1, and most of its L2s and L3s, is
        // 16-way (the area model's associativity floor).  At that fixed
        // length LLVM unrolls the mask and inlines the 60-byte shift of a
        // miss instead of calling `memmove`; other lengths take the
        // generic path (a 20-way twin measured no faster).
        let (hit, dropped) = match <&mut [u32; 16]>::try_from(&mut *ways) {
            Ok(set) => move_to_front(set, tag, dirty),
            Err(_) => move_to_front(ways, tag, dirty),
        };
        if !hit && dropped != INVALID_TAG {
            self.stats.record_eviction(dropped & DIRTY_BIT != 0);
        }
        hit
    }

    /// Probe the cache: returns whether the line was resident, touching
    /// LRU state, the folded dirty bit and the statistics exactly as
    /// [`RefCache::access_line`](crate::reference::RefCache::access_line)
    /// does for the same line.  On a miss the line is allocated
    /// (write-allocate), evicting — and recording — the LRU way of a full
    /// set.
    #[inline(always)]
    pub fn access_compiled(&mut self, set: u32, tag: u32, is_write: bool) -> bool {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let base = self.set_base(set);
        // MRU fast path: re-touches of the most recent line are the most
        // common probe, and neither reorder the set nor shift anything.
        let front = self.tags[base];
        let hit = if front ^ tag <= DIRTY_BIT {
            self.tags[base] = front | is_write as u32;
            true
        } else {
            self.insert_front(base, tag, is_write)
        };
        self.stats.record(hit, is_write);
        hit
    }

    /// Insert a line (e.g. a fill returning from the next level) without
    /// recording a probe in the statistics.  If the line is already
    /// present its LRU position and dirty bit are refreshed; otherwise it
    /// is allocated, evicting the LRU way if necessary (the eviction *is*
    /// recorded).
    #[inline(always)]
    pub fn fill_compiled(&mut self, set: u32, tag: u32, dirty: bool) {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let base = self.set_base(set);
        let front = self.tags[base];
        if front ^ tag <= DIRTY_BIT {
            self.tags[base] = front | dirty as u32;
            return;
        }
        self.insert_front(base, tag, dirty);
    }

    /// Record a *filtered* read hit: the caller has proved (e.g. via a
    /// one-entry MRU filter) that the line is at the MRU position of its
    /// set, so probing would be a state no-op.  Only the statistics move,
    /// exactly as [`CompiledCache::access_compiled`] would move them for
    /// that hit.
    #[inline]
    pub fn record_mru_read_hit(&mut self) {
        self.stats.record(true, false);
    }

    /// Whether a line is currently resident (does not update LRU state or
    /// statistics).
    #[inline]
    pub fn contains_compiled(&self, set: u32, tag: u32) -> bool {
        let base = self.set_base(set);
        find_pos(&self.tags[base..base + self.assoc], tag).is_some()
    }

    /// Invalidate a line if present; returns `true` if it was present and
    /// dirty.  Keeps the rest of the recency order and the
    /// empties-as-suffix invariant.
    #[inline(always)]
    pub fn invalidate_compiled(&mut self, set: u32, tag: u32) -> bool {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let base = self.set_base(set);
        let ways = &mut self.tags[base..base + self.assoc];
        match find_pos(ways, tag) {
            Some(pos) => {
                let was_dirty = ways[pos] & DIRTY_BIT != 0;
                ways.copy_within(pos + 1.., pos);
                ways[self.assoc - 1] = INVALID_TAG;
                was_dirty
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::reference::RefCache;
    use ccs_dag::AccessKind;

    /// 2 sets × 2 ways (4 lines of 64 B): line id `i` stands for line
    /// address `i * 64`, so set `i % 2`.
    fn small() -> CompiledCache {
        CompiledCache::new(2, 2)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access_compiled(0, line_tag(0), false));
        assert!(c.access_compiled(0, line_tag(0), false));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        c.access_compiled(0, line_tag(2), false);
        // Touch id 0 again so id 2 becomes LRU.
        c.access_compiled(0, line_tag(0), false);
        assert!(!c.access_compiled(0, line_tag(4), false));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.contains_compiled(0, line_tag(0)));
        assert!(!c.contains_compiled(0, line_tag(2)));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), true);
        c.access_compiled(0, line_tag(2), false);
        c.access_compiled(0, line_tag(2), false);
        // Evict id 0 (LRU, dirty).
        c.access_compiled(0, line_tag(4), false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_does_not_count_as_probe() {
        let mut c = small();
        c.fill_compiled(1, line_tag(1), false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains_compiled(1, line_tag(1)));
        assert!(c.access_compiled(1, line_tag(1), false));
        // Filling a full set evicts and records the eviction.
        c.fill_compiled(1, line_tag(3), true);
        c.fill_compiled(1, line_tag(5), false);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0, "clean LRU way evicted first");
    }

    #[test]
    fn invalidate_removes_line_and_reports_dirty() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), true);
        assert!(c.invalidate_compiled(0, line_tag(0)));
        assert!(!c.contains_compiled(0, line_tag(0)));
        assert!(!c.invalidate_compiled(0, line_tag(0)));
        assert!(!c.access_compiled(0, line_tag(0), false));
    }

    #[test]
    fn flush_and_residency() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        c.access_compiled(1, line_tag(1), false);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(c.heap_bytes() >= 4 * 4);
    }

    #[test]
    fn mru_read_hit_moves_only_stats() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        let before = *c.stats();
        c.record_mru_read_hit();
        assert_eq!(c.stats().hits, before.hits + 1);
        assert_eq!(c.stats().reads, before.reads + 1);
        assert_eq!(c.stats().misses, before.misses);
    }

    /// Lockstep with the executable spec [`RefCache`]: a seeded mix of
    /// probes (reads and dirtying writes), fills, invalidations and
    /// residency queries must agree on every hit/miss and invalidation
    /// result and on the statistics (so every eviction and write-back)
    /// after every operation, and leave every set holding the same lines
    /// and dirty bits in the same recency order.  The associativities cover
    /// every 4-way chunk remainder of the match mask, the 64-way mask
    /// limit and the scalar fallback past it; invalidation-heavy phases
    /// keep sets partially empty.
    #[test]
    fn lockstep_with_setassoc() {
        for assoc in [1u32, 2, 3, 4, 16, 18, 20, 31, 64, 65, 81] {
            for num_sets in [1u64, 2, 3] {
                lockstep(num_sets, assoc, 0x2545_F491_4F6C_DD1D ^ u64::from(assoc));
            }
        }
    }

    fn lockstep(num_sets: u64, assoc: u32, seed: u64) {
        let cfg = CacheConfig::new(num_sets * u64::from(assoc) * 64, 64, assoc, 1);
        let mut spec = RefCache::new(cfg);
        let mut compiled = CompiledCache::new(cfg.num_sets(), cfg.associativity);
        // Line id i <-> line address i * 64; set = i % num_sets.  Half
        // again as many lines as ways, so full sets evict.
        let lines = num_sets * u64::from(assoc) * 3 / 2 + 1;
        let mut state = seed;
        let mut partially_empty = false;
        for step in 0..4096u32 {
            // xorshift64* keeps the sequence deterministic and shim-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let id = ((r >> 8) % lines) as u32;
            let line = u64::from(id) * 64;
            let (set, tag) = (id % num_sets as u32, line_tag(id));
            let write = r & 1 != 0;
            // Phases of 512 operations: probe-heavy, fill-heavy, then
            // invalidation-heavy (which leaves sets partially empty).
            let op = match ((step / 512) % 3, (r >> 40) % 8) {
                (0, 0..=5) | (1, 0..=2) | (2, 0..=2) => 0,
                (0, 6) | (1, 3..=6) | (2, 3) => 1,
                (0, _) | (1, _) | (2, 4..=6) => 2,
                _ => 3,
            };
            let what = format!("{assoc}-way, {num_sets} sets, step {step}, op {op}, id {id}");
            match op {
                0 => {
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let hit = spec.access_line(line, kind).hit;
                    assert_eq!(compiled.access_compiled(set, tag, write), hit, "{what}");
                }
                1 => {
                    spec.fill_line(line, write);
                    compiled.fill_compiled(set, tag, write);
                }
                2 => {
                    let dirty = spec.invalidate_line(line);
                    assert_eq!(compiled.invalidate_compiled(set, tag), dirty, "{what}");
                }
                _ => {
                    assert_eq!(
                        spec.contains_line(line),
                        compiled.contains_compiled(set, tag),
                        "{what}"
                    );
                }
            }
            assert_eq!(*spec.stats(), *compiled.stats(), "{what}");
            let resident = compiled.resident_lines() as u64;
            partially_empty |= resident > 0 && resident < num_sets * u64::from(assoc);
        }
        // The spec's sets in recency order, as positional-LRU way arrays.
        let expected: Vec<u32> = (0..num_sets as usize)
            .flat_map(|set| {
                let mut ways: Vec<u32> = spec
                    .recency_order(set)
                    .into_iter()
                    .map(|(line, dirty)| line_tag((line / 64) as u32) | dirty as u32)
                    .collect();
                ways.resize(assoc as usize, INVALID_TAG);
                ways
            })
            .collect();
        assert_eq!(compiled.tags, expected, "{assoc}-way, {num_sets} sets");
        assert!(
            compiled.stats().evictions > 0 && compiled.stats().writebacks > 0,
            "{assoc}-way, {num_sets} sets: the mix must evict dirty lines"
        );
        assert!(
            partially_empty || num_sets * u64::from(assoc) == 1,
            "{assoc}-way, {num_sets} sets: the mix must leave the cache partly empty"
        );
    }
}
