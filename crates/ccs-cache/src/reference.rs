//! The executable specification of the set-associative cache.
//!
//! [`RefCache`] is the seed's set-associative cache, retained verbatim as
//! the one oracle for the cache model the paper's results rest on: per-set
//! `Vec`s of ways, true LRU via a monotonic clock, division-based set
//! indexing, write-back/write-allocate.  It is deliberately the obvious
//! implementation rather than the fast one:
//!
//! * the reference engine (`ccs-sim`'s `SimEngine::Reference`) runs its
//!   private L1s, shared L2s and optional L3 on it;
//! * the production [`CompiledCache`](crate::CompiledCache) is checked
//!   against it probe for probe (`compiled::tests::lockstep_with_setassoc`
//!   and the property tests).
//!
//! Do not optimise this module: its value is being the simple, obviously-
//! correct implementation the production cache is checked against.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use ccs_dag::AccessKind;

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

/// The seed's set-associative cache, retained verbatim: per-set `Vec`s of
/// ways, true-LRU via a monotonic clock, write-back/write-allocate.  Lines
/// are line-aligned addresses; the set of a line is
/// [`CacheConfig::set_of`].
pub struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<RefWay>>,
    stats: CacheStats,
    clock: u64,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: u64,
    dirty: bool,
    /// Monotonic timestamp of the last access; smallest = LRU victim.
    last_used: u64,
}

// The probe methods are `#[inline]` so the reference engine, in another
// crate, compiles them as it did when this type was private to it.
impl RefCache {
    /// Create an empty (cold) cache.
    ///
    /// # Panics
    /// Panics if `config` fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets =
            vec![Vec::with_capacity(config.associativity as usize); config.num_sets() as usize];
        RefCache {
            config,
            sets,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Probe the cache with a line-aligned address, allocating it on a miss
    /// (evicting the least recently used way of a full set).
    #[inline]
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        debug_assert_eq!(
            line % self.config.line_size,
            0,
            "address must be line-aligned"
        );
        self.clock += 1;
        let clock = self.clock;
        let is_write = kind.is_write();
        let set_idx = self.config.set_of(line) as usize;
        let assoc = self.config.associativity as usize;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.last_used = clock;
            way.dirty |= is_write;
            self.stats.record(true, is_write);
            return AccessOutcome {
                hit: true,
                evicted: None,
                writeback: false,
            };
        }

        // Miss: allocate, evicting the LRU way if the set is full.
        self.stats.record(false, is_write);
        let mut outcome = AccessOutcome {
            hit: false,
            evicted: None,
            writeback: false,
        };
        if set.len() == assoc {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(victim_idx);
            self.stats.record_eviction(victim.dirty);
            outcome.evicted = Some(victim.line);
            outcome.writeback = victim.dirty;
        }
        set.push(RefWay {
            line,
            dirty: is_write,
            last_used: clock,
        });
        outcome
    }

    /// Insert a line (e.g. a fill returning from the next level) without
    /// recording a probe in the statistics.  A resident line has its
    /// recency and dirty bit refreshed; otherwise it is allocated, evicting
    /// the LRU way of a full set (the eviction *is* recorded).
    #[inline]
    pub fn fill_line(&mut self, line: u64, dirty: bool) {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.config.set_of(line) as usize;
        let assoc = self.config.associativity as usize;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.last_used = clock;
            way.dirty |= dirty;
            return;
        }
        if set.len() == assoc {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(victim_idx);
            self.stats.record_eviction(victim.dirty);
        }
        set.push(RefWay {
            line,
            dirty,
            last_used: clock,
        });
    }

    /// Invalidate a line if present; returns `true` if it was present and
    /// dirty (an invalidation write-back would be needed).
    #[inline]
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let set_idx = self.config.set_of(line) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            let way = set.swap_remove(pos);
            way.dirty
        } else {
            false
        }
    }

    /// Whether a line is currently resident (does not update recency or
    /// statistics).
    #[cfg(test)]
    pub(crate) fn contains_line(&self, line: u64) -> bool {
        self.sets[self.config.set_of(line) as usize]
            .iter()
            .any(|w| w.line == line)
    }

    /// The `(line, dirty)` pairs resident in set `set`, most recently used
    /// first — the order the positional-LRU production cache keeps them in.
    #[cfg(test)]
    pub(crate) fn recency_order(&self, set: usize) -> Vec<(u64, bool)> {
        let mut ways = self.sets[set].clone();
        ways.sort_unstable_by_key(|w| std::cmp::Reverse(w.last_used));
        ways.iter().map(|w| (w.line, w.dirty)).collect()
    }
}
