//! Generational slot arena for per-entity state.
//!
//! A [`SlotArena`] is a slab of `T` slots with a free list: `insert` fills a
//! recycled slot (or grows the slab once) and returns a [`SlotKey`], `remove`
//! empties the slot and pushes it back. After the initial ramp-up the arena
//! reaches a high-water mark equal to the peak number of live entities and
//! never allocates again.
//!
//! A key is a dense `u32` slot index plus the slot's generation, which
//! `remove` advances. A key held past its entity's removal therefore never
//! matches the slot's next occupant: [`SlotArena::get`] answers `None` for
//! it, with one integer compare instead of a hash lookup.

/// Handle to one occupant of a [`SlotArena`] slot: the slot index and the
/// slot's generation when the occupant was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotKey {
    slot: u32,
    generation: u32,
}

impl SlotKey {
    /// The slot index (dense, reused after removal).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Advanced on every removal, so only the current occupant's key
    /// carries it.
    generation: u32,
    value: Option<T>,
}

/// A slab of reusable `T` slots addressed by generational keys.
#[derive(Debug, Clone)]
pub struct SlotArena<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena::new()
    }
}

impl<T> SlotArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        SlotArena {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// Stores `value` in a free slot and returns its key.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.entries[slot as usize];
            entry.value = Some(value);
            return SlotKey {
                slot,
                generation: entry.generation,
            };
        }
        let slot = u32::try_from(self.entries.len()).expect("slot arena overflow");
        self.entries.push(Entry {
            generation: 0,
            value: Some(value),
        });
        SlotKey {
            slot,
            generation: 0,
        }
    }

    /// The occupant `key` names, `None` once it was removed.
    #[inline]
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        self.entries
            .get(key.slot as usize)
            .filter(|e| e.generation == key.generation)
            .and_then(|e| e.value.as_ref())
    }

    /// Exclusive access to the occupant `key` names, `None` once it was
    /// removed.
    #[inline]
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        self.entries
            .get_mut(key.slot as usize)
            .filter(|e| e.generation == key.generation)
            .and_then(|e| e.value.as_mut())
    }

    /// Whether `key` names a live occupant.
    #[inline]
    pub fn contains(&self, key: SlotKey) -> bool {
        self.get(key).is_some()
    }

    /// Takes the occupant `key` names out of the arena and frees its slot;
    /// `None` if it was already removed.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let entry = self
            .entries
            .get_mut(key.slot as usize)
            .filter(|e| e.generation == key.generation)?;
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.live -= 1;
        self.free.push(key.slot);
        Some(value)
    }

    /// Live occupants with their keys, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> {
        self.entries.iter().zip(0u32..).filter_map(|(e, slot)| {
            e.value.as_ref().map(|v| {
                (
                    SlotKey {
                        slot,
                        generation: e.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Number of live occupants.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// Whether the arena holds no occupant.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak number of simultaneous occupants — the arena's resident
    /// footprint after ramp-up.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }
}

impl<T> std::ops::Index<SlotKey> for SlotArena<T> {
    type Output = T;

    /// Panics if `key`'s occupant was removed.
    #[inline]
    fn index(&self, key: SlotKey) -> &T {
        self.get(key).expect("stale slot key")
    }
}

impl<T> std::ops::IndexMut<SlotKey> for SlotArena<T> {
    #[inline]
    fn index_mut(&mut self, key: SlotKey) -> &mut T {
        self.get_mut(key).expect("stale slot key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_recycles_slots() {
        let mut arena: SlotArena<[u64; 4]> = SlotArena::new();
        let a = arena.insert([0; 4]);
        let b = arena.insert([1; 4]);
        assert_ne!(a, b);
        arena[a][2] = 7;
        assert_eq!(arena[a][2], 7);
        assert_eq!(arena.remove(a), Some([0, 0, 7, 0]));
        assert_eq!(arena.remove(a), None, "removed twice");
        // The freed slot is reused under a new generation: the old key no
        // longer reaches it.
        let c = arena.insert([2; 4]);
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c, a);
        assert_eq!(arena.get(a), None);
        assert!(!arena.contains(a));
        assert_eq!(arena[c], [2; 4]);
        assert_eq!(arena.len(), 2);
        let live: Vec<SlotKey> = arena.iter().map(|(k, _)| k).collect();
        assert_eq!(live, vec![c, b]);
        arena.remove(b);
        arena.remove(c);
        assert!(arena.is_empty());
        assert_eq!(arena.high_water(), 2);
    }

    #[test]
    fn steady_state_does_not_grow() {
        let mut arena: SlotArena<u64> = SlotArena::new();
        let warm: Vec<SlotKey> = (0..8).map(|i| arena.insert(i)).collect();
        for key in warm {
            arena.remove(key);
        }
        for i in 0..100 {
            let key = arena.insert(i);
            arena[key] += 1;
            assert_eq!(arena.remove(key), Some(i + 1));
        }
        assert_eq!(arena.high_water(), 8);
        assert_eq!(arena.entries.len(), 8);
    }
}
