//! Set-associative cache array with LRU replacement.

/// Coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Shared, clean.
    Shared,
    /// Exclusive, clean: sole copy; a store upgrades it to `Modified`
    /// silently (the MESI optimization that avoids upgrade traffic).
    Exclusive,
    /// Modified, exclusive, dirty.
    Modified,
}

impl LineState {
    /// True for states the directory tracks as "owned" (E or M): eviction
    /// must notify the home so its owner pointer stays consistent.
    pub fn is_owned(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    state: LineState,
    lru: u64,
    valid: bool,
}

/// A victim produced by [`CacheArray::install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line index.
    pub line: u64,
    /// True if the victim was dirty (needs a writeback).
    pub dirty: bool,
}

/// Set-associative tag/state array (no data — the simulator tracks timing
/// only).
///
/// # Example
///
/// ```
/// use ra_fullsys::cache::{CacheArray, LineState};
///
/// let mut l1 = CacheArray::new(2, 2);
/// assert_eq!(l1.lookup(7), None);
/// l1.install(7, LineState::Shared);
/// assert_eq!(l1.lookup(7), Some(LineState::Shared));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: u64,
    ways: Vec<Way>, // sets x assoc, flattened
    assoc: usize,
    tick: u64,
}

impl CacheArray {
    /// Creates an array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(sets: u32, assoc: u32) -> Self {
        assert!(sets > 0 && assoc > 0, "cache geometry must be non-zero");
        CacheArray {
            sets: u64::from(sets),
            ways: vec![
                Way {
                    line: 0,
                    state: LineState::Shared,
                    lru: 0,
                    valid: false,
                };
                (sets * assoc) as usize
            ],
            assoc: assoc as usize,
            tick: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// State of `line` if cached; touches LRU.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
            .map(|w| {
                w.lru = tick;
                w.state
            })
    }

    /// State of `line` without perturbing LRU.
    pub fn peek(&self, line: u64) -> Option<LineState> {
        let range = self.set_range(line);
        self.ways[range]
            .iter()
            .find(|w| w.valid && w.line == line)
            .map(|w| w.state)
    }

    /// Upgrades/downgrades the state of a cached line.
    ///
    /// Returns `false` if the line is not cached.
    pub fn set_state(&mut self, line: u64, state: LineState) -> bool {
        let range = self.set_range(line);
        if let Some(w) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.state = state;
            true
        } else {
            false
        }
    }

    /// Inserts `line` in `state`, evicting the LRU way if the set is full.
    ///
    /// Returns the victim (if any). Installing an already-present line just
    /// updates its state.
    pub fn install(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let ways = &mut self.ways[range];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.line == line) {
            w.state = state;
            w.lru = tick;
            return None;
        }
        if let Some(w) = ways.iter_mut().find(|w| !w.valid) {
            *w = Way {
                line,
                state,
                lru: tick,
                valid: true,
            };
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("assoc > 0 guarantees a victim");
        let evicted = Evicted {
            line: victim.line,
            // Exclusive victims are clean, but the directory still thinks
            // this cache owns them, so they take the writeback path too.
            dirty: victim.state.is_owned(),
        };
        *victim = Way {
            line,
            state,
            lru: tick,
            valid: true,
        };
        Some(evicted)
    }

    /// Drops `line` from the cache; returns `true` if it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        if let Some(w) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.valid = false;
            true
        } else {
            false
        }
    }

    /// Number of valid lines (diagnostic).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_invalidate_roundtrip() {
        let mut c = CacheArray::new(4, 2);
        assert!(c.install(10, LineState::Shared).is_none());
        assert_eq!(c.lookup(10), Some(LineState::Shared));
        assert!(c.set_state(10, LineState::Modified));
        assert_eq!(c.peek(10), Some(LineState::Modified));
        assert!(c.invalidate(10));
        assert_eq!(c.lookup(10), None);
        assert!(!c.invalidate(10));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CacheArray::new(1, 2);
        c.install(1, LineState::Shared);
        c.install(2, LineState::Shared);
        c.lookup(1); // 2 is now LRU
        let evicted = c.install(3, LineState::Shared).expect("set full");
        assert_eq!(evicted.line, 2);
        assert!(!evicted.dirty);
        assert_eq!(c.peek(1), Some(LineState::Shared));
        assert_eq!(c.peek(3), Some(LineState::Shared));
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = CacheArray::new(1, 1);
        c.install(1, LineState::Modified);
        let evicted = c.install(2, LineState::Shared).unwrap();
        assert_eq!(evicted, Evicted { line: 1, dirty: true });
    }

    #[test]
    fn reinstall_updates_state_without_eviction() {
        let mut c = CacheArray::new(1, 1);
        c.install(1, LineState::Shared);
        assert!(c.install(1, LineState::Modified).is_none());
        assert_eq!(c.peek(1), Some(LineState::Modified));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = CacheArray::new(2, 1);
        c.install(0, LineState::Shared); // set 0
        c.install(1, LineState::Shared); // set 1
        assert_eq!(c.occupancy(), 2);
        // Line 2 maps to set 0: evicts line 0, not line 1.
        let e = c.install(2, LineState::Shared).unwrap();
        assert_eq!(e.line, 0);
        assert_eq!(c.peek(1), Some(LineState::Shared));
    }

    #[test]
    fn set_state_on_absent_line_is_false() {
        let mut c = CacheArray::new(2, 2);
        assert!(!c.set_state(5, LineState::Modified));
    }
}
