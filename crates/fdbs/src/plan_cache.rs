//! The plan cache: compiled plans keyed by statement text, in a CLOCK
//! (second-chance) cache of constant capacity.
//!
//! DB2 keeps compiled sections in a bounded package cache; a statement
//! that has fallen out of it is compiled again when it returns. This
//! cache behaves the same way with [`PLAN_CACHE_CAPACITY`] slots:
//!
//! * a **hit** takes the shared read lock only and sets the entry's
//!   atomic reference bit;
//! * a **miss** inserts under the write lock. While a slot is free the
//!   plan simply takes it. Once every slot is taken, the clock hand
//!   sweeps forward, clearing set reference bits, and evicts the first
//!   entry whose bit is already clear. The new plan takes the victim's
//!   slot with its bit clear, and the hand moves past it.
//!
//! So a statement executed once is evicted on the hand's next pass, while
//! a statement hit at least once per revolution of the hand is never
//! evicted. A returning evicted statement pays `Compile statement` again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fedwf_types::sync::RwLock;

use crate::plan::Plan;

/// Plans the FDBS keeps compiled at most. A constant of the engine, as a
/// package cache size is of a DB2 installation — not a setting.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// A CLOCK cache from statement keys to values (compiled plans in the
/// engine; plain numbers in the unit tests below).
pub(crate) struct ClockCache<V> {
    capacity: usize,
    clock: RwLock<Clock<V>>,
}

struct Clock<V> {
    index: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    hand: usize,
}

struct Slot<V> {
    key: String,
    value: V,
    /// Set by hits under the read lock, cleared by the hand under the
    /// write lock, which orders the two; `Relaxed` because the bit
    /// publishes no other data.
    referenced: AtomicBool,
}

/// The engine's plan cache.
pub(crate) type PlanCache = ClockCache<Arc<Plan>>;

impl PlanCache {
    pub(crate) fn new() -> PlanCache {
        ClockCache::with_capacity(PLAN_CACHE_CAPACITY)
    }
}

impl<V: Clone> ClockCache<V> {
    pub(crate) fn with_capacity(capacity: usize) -> ClockCache<V> {
        ClockCache {
            capacity: capacity.max(1),
            clock: RwLock::new(Clock {
                index: HashMap::new(),
                slots: Vec::new(),
                hand: 0,
            }),
        }
    }

    /// The value cached under `key`, marking it recently used.
    pub(crate) fn get(&self, key: &str) -> Option<V> {
        let clock = self.clock.read();
        let slot = &clock.slots[*clock.index.get(key)?];
        slot.referenced.store(true, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Cache `value` under `key`, evicting by CLOCK when full. A key that
    /// is already present (two callers missed on it at once) keeps its
    /// entry.
    pub(crate) fn insert(&self, key: String, value: V) {
        let mut clock = self.clock.write();
        if clock.index.contains_key(&key) {
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            referenced: AtomicBool::new(false),
        };
        if clock.slots.len() < self.capacity {
            let at = clock.slots.len();
            clock.slots.push(slot);
            clock.index.insert(key, at);
            return;
        }
        let clock = &mut *clock;
        let len = clock.slots.len();
        while std::mem::take(clock.slots[clock.hand].referenced.get_mut()) {
            clock.hand = (clock.hand + 1) % len;
        }
        let victim = std::mem::replace(&mut clock.slots[clock.hand], slot);
        clock.index.remove(&victim.key);
        clock.index.insert(key, clock.hand);
        clock.hand = (clock.hand + 1) % len;
    }

    pub(crate) fn len(&self) -> usize {
        self.clock.read().slots.len()
    }

    pub(crate) fn clear(&self) {
        let mut clock = self.clock.write();
        clock.index.clear();
        clock.slots.clear();
        clock.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: usize) -> String {
        format!("k{i}")
    }

    #[test]
    fn fills_to_capacity_then_evicts_unreferenced_entries() {
        let cache = ClockCache::with_capacity(4);
        for i in 0..4 {
            cache.insert(key(i), i);
        }
        assert_eq!(cache.len(), 4);
        cache.insert(key(4), 4);
        assert_eq!(cache.len(), 4);
        // No entry was referenced: the hand evicts the oldest slot.
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.get(&key(4)), Some(4));
    }

    #[test]
    fn referenced_entries_get_a_second_chance() {
        let cache = ClockCache::with_capacity(4);
        for i in 0..4 {
            cache.insert(key(i), i);
        }
        assert_eq!(cache.get(&key(0)), Some(0));
        cache.insert(key(4), 4);
        // Slot 0 was referenced: its bit is cleared and slot 1 goes.
        assert_eq!(cache.get(&key(1)), None);
        for i in [0, 2, 3, 4] {
            assert_eq!(cache.get(&key(i)), Some(i), "{i}");
        }
    }

    #[test]
    fn a_hot_key_survives_a_stream_of_one_off_keys() {
        let cache = ClockCache::with_capacity(8);
        cache.insert("hot".to_string(), usize::MAX);
        for i in 0..100 {
            assert_eq!(cache.get("hot"), Some(usize::MAX), "after {i} inserts");
            cache.insert(key(i), i);
            assert!(cache.len() <= 8);
        }
    }

    #[test]
    fn duplicate_insert_keeps_the_entry() {
        let cache = ClockCache::with_capacity(2);
        cache.insert(key(0), 0);
        cache.insert(key(0), 7);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(0)), Some(0));
    }

    #[test]
    fn clear_drops_every_entry_and_eviction_keeps_working() {
        let cache = ClockCache::with_capacity(4);
        for i in 0..4 {
            cache.insert(key(i), i);
        }
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&key(2)), None);
        for i in 10..20 {
            cache.insert(key(i), i);
            assert!(cache.len() <= 4);
            assert_eq!(cache.get(&key(i)), Some(i));
        }
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&key(19)), None);
    }
}
