//! Generational slab for payloads parked behind an event.
//!
//! An event carries one `u64` payload word, so anything larger (an
//! envelope, a GPU job's origin, an in-flight network message) parks in
//! a world-side [`Slab`] and the event carries the key. The engine keeps
//! its pending events in one too. A key packs
//! the slot index (low 32 bits) and the slot's generation (high 32 bits);
//! the generation moves on every `remove` and `clear`, so a key that
//! outlived its entry — an event scheduled before a rollback voided the
//! slab — reads as `None` even after the slot has been handed out again.

/// A LIFO free list of payload slots addressed by generational `u64`
/// keys. Cloning copies the free list too, so a clone hands out the same
/// keys as the original: a forked world replays its parent's keys.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
}

// `Copy` when `T` is, so cloning a slab of plain payloads is one copy.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    generation: u32,
    value: Option<T>,
}

impl<T: Clone> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Slab {
            slots: self.slots.clone(),
            free: self.free.clone(),
            live: self.live,
        }
    }

    /// Copy `source` into this slab, keeping this slab's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.free.clone_from(&source.free);
        self.live = source.live;
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Park `value`, reusing the most recently freed slot if there is
    /// one, and return its key.
    pub fn insert(&mut self, value: T) -> u64 {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab slot index overflow");
                self.slots.push(Entry {
                    generation: 0,
                    value: None,
                });
                i
            }
        };
        let e = &mut self.slots[slot as usize];
        e.value = Some(value);
        u64::from(e.generation) << 32 | u64::from(slot)
    }

    fn entry(&self, key: u64) -> Option<&Entry<T>> {
        let (slot, generation) = split(key);
        self.slots.get(slot).filter(|e| e.generation == generation)
    }

    fn entry_mut(&mut self, key: u64) -> Option<&mut Entry<T>> {
        let (slot, generation) = split(key);
        self.slots
            .get_mut(slot)
            .filter(|e| e.generation == generation)
    }

    /// The entry behind `key`, or `None` if the key is stale.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.entry(key)?.value.as_ref()
    }

    /// The entry behind `key` for mutation, or `None` if the key is stale.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.entry_mut(key)?.value.as_mut()
    }

    /// Take the entry behind `key` and free its slot; `None` (and no
    /// change) if the key is stale.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        self.entry(key)?.value.as_ref()?;
        Some(self.remove_slot(key as u32))
    }

    /// The entry in slot `slot`, whatever its generation. Panics if the
    /// slot is vacant.
    #[inline]
    pub(crate) fn by_slot(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .value
            .as_ref()
            .expect("vacant slab slot")
    }

    /// Take the entry in slot `slot` and free the slot, whatever its
    /// generation. Panics if the slot is vacant.
    #[inline]
    pub(crate) fn remove_slot(&mut self, slot: u32) -> T {
        let e = &mut self.slots[slot as usize];
        let value = e.value.take().expect("vacant slab slot");
        e.generation = e.generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        value
    }

    /// Drop every entry and invalidate every outstanding key. Slots are
    /// kept for reuse.
    pub fn clear(&mut self) {
        for (i, e) in self.slots.iter_mut().enumerate() {
            if e.value.take().is_some() {
                e.generation = e.generation.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.live = 0;
    }

    /// Drop every entry and start over as a fresh slab would: keys
    /// restart at slot 0, generation 0. Unlike [`Slab::clear`], a key
    /// minted before the reset may name an entry inserted after it, so
    /// only reset a slab no outstanding key can reach. Capacity is kept.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever allocated, live or free: the high-water mark of
    /// [`Slab::len`].
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The live entries, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|e| e.value.as_ref())
    }
}

/// A key's slot index and generation.
fn split(key: u64) -> (usize, u32) {
    (key as u32 as usize, (key >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_key_stays_stale_after_reuse() {
        let mut s = Slab::new();
        let a = s.insert("a");
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        let b = s.insert("b");
        assert_eq!(b as u32, a as u32, "the slot is reused");
        assert_ne!(b, a);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_invalidates_outstanding_keys() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(a), None);
        let c = s.insert(3);
        let d = s.insert(4);
        assert_eq!(s.slots(), 2, "clear keeps the slots for reuse");
        for stale in [a, b] {
            assert_eq!(s.get(stale), None);
            assert_eq!(s.remove(stale), None);
        }
        assert_eq!(s.remove(c), Some(3));
        assert_eq!(s.remove(d), Some(4));
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut s = Slab::new();
        let keys: Vec<u64> = (0..3).map(|i| s.insert(i)).collect();
        s.remove(keys[0]);
        s.remove(keys[2]);
        assert_eq!(s.insert(7) as u32, keys[2] as u32);
        assert_eq!(s.insert(8) as u32, keys[0] as u32);
        assert_eq!(s.insert(9) as u32, 3);
        assert_eq!(s.values().copied().collect::<Vec<_>>(), [8, 1, 7, 9]);
    }

    #[test]
    fn reset_restarts_keys() {
        let mut s = Slab::new();
        let keys: Vec<u64> = (0..3).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.slots(), 0);
        assert_eq!([s.insert(7), s.insert(8)], [0, 1], "slot 0, generation 0");
    }

    #[test]
    fn clone_from_matches_clone() {
        let mut s = Slab::new();
        let keys: Vec<u64> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(keys[2]);
        let mut c = Slab::new();
        c.insert(99);
        c.clone_from(&s);
        assert_eq!(c.len(), 3);
        assert_eq!(c.values().copied().collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(c.insert(5), s.insert(5));
    }

    #[test]
    fn clone_hands_out_the_same_keys() {
        let mut s = Slab::new();
        let keys: Vec<u64> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        let mut c = s.clone();
        for v in 10..13 {
            assert_eq!(c.insert(v), s.insert(v));
        }
        assert_eq!(c.get(keys[0]), Some(&0));
        assert_eq!(c.get(keys[1]), None);
    }
}
