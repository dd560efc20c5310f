//! Set-associative LRU model of the device L2 cache.
//!
//! The paper's Table II uses nvprof's `L2 hit rate` to separate
//! data-access pathologies (darpa: 4%) from healthy reuse (nell2: 83%).
//! This model replays every coalesced segment access through a
//! set-associative LRU array and reports the same statistic.

/// A set-associative LRU cache over 128-B segment ids.
#[derive(Debug, Clone)]
pub struct L2Cache {
    /// `ways[set]` = most-recent-first list of resident segment tags.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Builds a cache of `capacity_bytes` with `line_bytes` lines and the
    /// given associativity.
    ///
    /// # Panics
    /// If the geometry does not divide evenly.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> L2Cache {
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= assoc && lines.is_multiple_of(assoc),
            "bad cache geometry"
        );
        let num_sets = lines / assoc;
        L2Cache {
            sets: vec![Vec::with_capacity(assoc); num_sets],
            assoc,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses one segment; returns `true` on hit. Misses fill (allocate-
    /// on-miss, LRU eviction).
    pub fn access(&mut self, seg: u64) -> bool {
        let set_id = (seg % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_id];
        if let Some(pos) = set.iter().position(|&t| t == seg) {
            // Move to MRU position.
            let tag = set.remove(pos);
            set.insert(0, tag);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.pop();
            }
            set.insert(0, seg);
            self.misses += 1;
            false
        }
    }

    /// Set a segment id maps to (the modulo indexing [`L2Cache::access`]
    /// uses) — exposed so memory traces can record placement without
    /// touching cache state.
    pub fn set_index(&self, seg: u64) -> usize {
        (seg % self.sets.len() as u64) as usize
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in percent (0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L2Cache {
        // 4 sets × 2 ways × 128 B = 1 KiB.
        L2Cache::new(1024, 128, 2)
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small();
        assert!(!c.access(7));
        assert!(c.access(7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = small();
        // Segments 0, 4, 8 all map to set 0 (4 sets); assoc 2.
        assert!(!c.access(0));
        assert!(!c.access(4));
        assert!(!c.access(8)); // evicts 0
        assert!(!c.access(0)); // miss again
        assert!(c.access(8)); // still resident
    }

    #[test]
    fn touching_keeps_line_hot() {
        let mut c = small();
        c.access(0);
        c.access(4);
        c.access(0); // refresh 0 to MRU
        c.access(8); // evicts 4, not 0
        assert!(c.access(0));
        assert!(!c.access(4));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for seg in 0..4u64 {
            c.access(seg);
        }
        for seg in 0..4u64 {
            assert!(c.access(seg), "segment {seg} should still be resident");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = small();
        c.access(1);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(1));
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn rejects_bad_geometry() {
        L2Cache::new(1000, 128, 3);
    }
}
