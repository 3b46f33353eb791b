//! An intrusive, allocation-free LRU index over numbered slots.
//!
//! [`LruIndex`] tracks recency for slots `0..capacity` using a doubly
//! linked list embedded in two `Vec<u32>`s. It does not own values: every
//! bounded cache in PRISM (embedding rows, serving sessions, semantic
//! cache entries) keeps its payloads in its own slots and uses this index
//! purely for eviction ordering, so a cache hit costs a few vector writes
//! and no allocation.

/// Sentinel meaning "no slot".
const NIL: u32 = u32::MAX;

/// Recency list over `capacity` slots; slot 0..capacity are caller-managed.
/// A slab that grows appends slots with [`LruIndex::push_detached`].
#[derive(Debug, Clone)]
pub struct LruIndex {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruIndex {
    /// Creates an index with room for `capacity` slots, all initially
    /// detached.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "capacity too large");
        LruIndex {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of attached slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of slots.
    pub fn capacity(&self) -> usize {
        self.prev.len()
    }

    /// Appends one detached slot and returns its number (the old
    /// capacity).
    pub fn push_detached(&mut self) -> usize {
        let slot = self.capacity();
        assert!(slot + 1 < NIL as usize, "capacity too large");
        self.prev.push(NIL);
        self.next.push(NIL);
        slot
    }

    /// Attaches `slot` as the most recently used entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slot is already attached.
    pub fn push_front(&mut self, slot: usize) {
        let s = slot as u32;
        debug_assert!(self.prev[slot] == NIL && self.next[slot] == NIL && self.head != s);
        self.next[slot] = self.head;
        self.prev[slot] = NIL;
        if self.head != NIL {
            self.prev[self.head as usize] = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
        self.len += 1;
    }

    /// Detaches `slot` from the recency list.
    pub fn detach(&mut self, slot: usize) {
        let s = slot as u32;
        let p = self.prev[slot];
        let n = self.next[slot];
        if p != NIL {
            self.next[p as usize] = n;
        } else if self.head == s {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else if self.tail == s {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.len -= 1;
    }

    /// Moves an attached `slot` to the front (most recently used).
    pub fn touch(&mut self, slot: usize) {
        if self.head == slot as u32 {
            return;
        }
        self.detach(slot);
        self.push_front(slot);
    }

    /// The least recently used slot, if any.
    pub fn lru(&self) -> Option<usize> {
        if self.tail == NIL {
            None
        } else {
            Some(self.tail as usize)
        }
    }

    /// Detaches and returns the least recently used slot.
    pub fn pop_lru(&mut self) -> Option<usize> {
        let slot = self.lru()?;
        self.detach(slot);
        Some(slot)
    }

    /// Iterates slots from most to least recently used (for diagnostics).
    pub fn iter_mru(&self) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let s = cur as usize;
                cur = self.next[s];
                Some(s)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_order() {
        let mut l = LruIndex::new(4);
        assert!(l.is_empty());
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.len(), 3);
        // LRU is the first pushed.
        assert_eq!(l.pop_lru(), Some(0));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn touch_promotes() {
        let mut l = LruIndex::new(3);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        l.touch(0); // 0 becomes MRU.
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(0));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruIndex::new(2);
        l.push_front(0);
        l.push_front(1);
        l.touch(1);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn detach_middle() {
        let mut l = LruIndex::new(3);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        l.detach(1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![2, 0]);
        // Reattach works.
        l.push_front(1);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    fn push_detached_grows_a_slab() {
        let mut l = LruIndex::new(0);
        assert_eq!(l.push_detached(), 0);
        l.push_front(0);
        assert_eq!(l.push_detached(), 1);
        assert_eq!(l.capacity(), 2);
        assert_eq!(l.len(), 1, "a new slot starts detached");
        l.push_front(1);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn single_slot_lifecycle() {
        let mut l = LruIndex::new(1);
        l.push_front(0);
        assert_eq!(l.lru(), Some(0));
        l.touch(0);
        assert_eq!(l.pop_lru(), Some(0));
        assert!(l.is_empty());
        assert_eq!(l.lru(), None);
    }

    #[test]
    fn interleaved_stress_matches_reference() {
        // Cross-check against a naive Vec-based recency model.
        let cap = 16;
        let mut l = LruIndex::new(cap);
        let mut reference: Vec<usize> = Vec::new(); // front = MRU
        let mut attached = vec![false; cap];
        let mut x = 123_456_789_u64;
        for step in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (x >> 33) as usize % cap;
            match step % 3 {
                0 if !attached[slot] => {
                    l.push_front(slot);
                    reference.insert(0, slot);
                    attached[slot] = true;
                }
                1 if attached[slot] => {
                    l.touch(slot);
                    reference.retain(|&s| s != slot);
                    reference.insert(0, slot);
                }
                2 if !reference.is_empty() => {
                    let got = l.pop_lru().unwrap();
                    let want = reference.pop().unwrap();
                    assert_eq!(got, want);
                    attached[got] = false;
                }
                _ => {}
            }
            assert_eq!(l.len(), reference.len());
        }
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), reference);
    }
}
