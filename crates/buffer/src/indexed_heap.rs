//! An updatable binary min-heap.
//!
//! Paper §6: "every buffer manager uses a priority queue to keep the pages
//! sorted by their benefit and in the case of a buffer replacement action,
//! the page with the locally lowest benefit is replaced." Benefits change on
//! every access and on every heat-dissemination message, so the queue must
//! support `decrease/increase-key` and arbitrary removal — hence an *indexed*
//! heap with a position map rather than `std::collections::BinaryHeap`.

use crate::page::DenseId;

/// Heap-slot sentinel for "item not present".
const ABSENT: u32 = u32::MAX;

/// Min-heap over `(priority, item)` with O(log n) insert/remove/update and
/// O(1) membership and peek. Priorities must not be NaN.
///
/// The position map is a dense vector indexed by [`DenseId::dense_index`]
/// rather than a hash map: every sift level moves one entry and must
/// update its position, so re-keying one page in a pool of n pages costs up
/// to log₂ n + 1 position writes — on the repricing hot path those writes
/// are the bulk of the work, and an array store beats even a cheap hash
/// probe several-fold. Memory is one `u32` per page id ever seen.
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<I, P> {
    /// Heap array of (priority, item).
    heap: Vec<(P, I)>,
    /// dense_index(item) → index in `heap`, `ABSENT` when not present.
    pos: Vec<u32>,
}

impl<I, P> Default for IndexedMinHeap<I, P>
where
    I: Copy + Eq + DenseId,
    P: PartialOrd + Copy,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<I, P> IndexedMinHeap<I, P>
where
    I: Copy + Eq + DenseId,
    P: PartialOrd + Copy,
{
    /// Empty heap.
    pub fn new() -> Self {
        IndexedMinHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn slot(&self, item: &I) -> Option<usize> {
        match self.pos.get(item.dense_index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    fn set_slot(&mut self, item: I, slot: u32) {
        let i = item.dense_index();
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        self.pos[i] = slot;
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if `item` is present.
    pub fn contains(&self, item: &I) -> bool {
        self.slot(item).is_some()
    }

    /// Current priority of `item`.
    pub fn priority(&self, item: &I) -> Option<P> {
        self.slot(item).map(|i| self.heap[i].0)
    }

    /// Inserts a new item. Panics if already present (use [`Self::update`]).
    pub fn insert(&mut self, item: I, priority: P) {
        assert!(!self.contains(&item), "item already in heap");
        let i = self.heap.len();
        self.heap.push((priority, item));
        self.set_slot(item, i as u32);
        self.sift_up(i);
    }

    /// Changes the priority of an existing item. Panics if absent.
    pub fn update(&mut self, item: I, priority: P) {
        let i = self.slot(&item).expect("item not in heap");
        let old = self.heap[i].0;
        self.heap[i].0 = priority;
        if priority < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Inserts or updates.
    pub fn upsert(&mut self, item: I, priority: P) {
        if self.contains(&item) {
            self.update(item, priority);
        } else {
            self.insert(item, priority);
        }
    }

    /// The minimum-priority entry without removing it.
    pub fn peek_min(&self) -> Option<(&I, &P)> {
        self.heap.first().map(|(p, i)| (i, p))
    }

    /// Removes and returns the minimum-priority entry.
    pub fn pop_min(&mut self) -> Option<(I, P)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Removes `item` if present; returns its priority.
    pub fn remove(&mut self, item: &I) -> Option<P> {
        let i = self.slot(item)?;
        Some(self.remove_at(i).1)
    }

    /// Applies `f` to every priority in place. `f` must be strictly
    /// order-preserving (`a ≤ b ⇒ f(a) ≤ f(b)`), so the heap shape stays a
    /// valid min-heap without any sifting — O(n) with no moves. Used by the
    /// lazy cost-based policy to decay all benefits by a common factor.
    pub fn map_priorities(&mut self, f: impl Fn(P) -> P) {
        for entry in &mut self.heap {
            entry.0 = f(entry.0);
        }
        #[cfg(debug_assertions)]
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            debug_assert!(
                !Self::lt(&self.heap[i].0, &self.heap[parent].0),
                "map_priorities callback was not order-preserving"
            );
        }
    }

    /// Drains all items (unordered).
    pub fn clear(&mut self) {
        self.heap.clear();
        // Keep the dense table allocated; just mark everything absent.
        self.pos.fill(ABSENT);
    }

    /// The item in heap slot `slot < len()`: slots enumerate the items in
    /// heap-array order.
    pub(crate) fn item_at(&self, slot: usize) -> I {
        self.heap[slot].1
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&I, &P)> {
        self.heap.iter().map(|(p, i)| (i, p))
    }

    fn remove_at(&mut self, i: usize) -> (I, P) {
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        let (p, item) = self.heap.pop().expect("non-empty");
        self.set_slot(item, ABSENT);
        if i < self.heap.len() {
            self.set_slot(self.heap[i].1, i as u32);
            self.sift_down(i);
            self.sift_up(i);
        }
        (item, p)
    }

    fn lt(a: &P, b: &P) -> bool {
        a.partial_cmp(b).expect("NaN priority").is_lt()
    }

    /// Stores `entry` at heap slot `i` and records its position. The item
    /// is already present, so its dense slot exists: a plain store.
    fn place(&mut self, i: usize, entry: (P, I)) {
        self.pos[entry.1.dense_index()] = i as u32;
        self.heap[i] = entry;
    }

    // Both sifts carry the moving entry in hand and shift the entries it
    // passes into the hole it leaves: one position write per level instead
    // of a swap's two, with the same comparisons and the same final layout.

    fn sift_up(&mut self, start: usize) {
        let entry = self.heap[start];
        let mut i = start;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::lt(&entry.0, &self.heap[parent].0) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        if i != start {
            self.place(i, entry);
        }
    }

    fn sift_down(&mut self, start: usize) {
        let entry = self.heap[start];
        let len = self.heap.len();
        let mut i = start;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = None;
            let mut key = &entry.0;
            if l < len && Self::lt(&self.heap[l].0, key) {
                smallest = Some(l);
                key = &self.heap[l].0;
            }
            if r < len && Self::lt(&self.heap[r].0, key) {
                smallest = Some(r);
            }
            let Some(child) = smallest else {
                break;
            };
            self.place(i, self.heap[child]);
            i = child;
        }
        if i != start {
            self.place(i, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    #[test]
    fn pops_in_priority_order() {
        let mut h: IndexedMinHeap<PageId, f64> = IndexedMinHeap::new();
        for (i, p) in [(1u32, 3.0), (2, 1.0), (3, 2.0), (4, 0.5)] {
            h.insert(PageId(i), p);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_min().map(|(i, _)| i.0)).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h: IndexedMinHeap<PageId, f64> = IndexedMinHeap::new();
        h.insert(PageId(1), 1.0);
        h.insert(PageId(2), 2.0);
        h.insert(PageId(3), 3.0);
        h.update(PageId(3), 0.1); // decrease
        assert_eq!(h.peek_min().unwrap().0 .0, 3);
        h.update(PageId(3), 9.0); // increase
        assert_eq!(h.peek_min().unwrap().0 .0, 1);
        assert_eq!(h.priority(&PageId(3)), Some(9.0));
    }

    #[test]
    fn remove_arbitrary() {
        let mut h: IndexedMinHeap<PageId, u64> = IndexedMinHeap::new();
        for i in 0..10u32 {
            h.insert(PageId(i), (i * 7 % 10) as u64);
        }
        assert_eq!(h.remove(&PageId(5)), Some(5 * 7 % 10));
        assert_eq!(h.remove(&PageId(5)), None);
        assert_eq!(h.len(), 9);
        // Remaining pops are still sorted.
        let mut prev = 0;
        while let Some((_, p)) = h.pop_min() {
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn tuple_priorities() {
        // Used by LRU-K: (kth_time, last_time) lexicographic.
        let mut h: IndexedMinHeap<PageId, (u64, u64)> = IndexedMinHeap::new();
        h.insert(PageId(1), (0, 5));
        h.insert(PageId(2), (0, 3));
        h.insert(PageId(3), (10, 0));
        assert_eq!(h.pop_min().unwrap().0 .0, 2);
        assert_eq!(h.pop_min().unwrap().0 .0, 1);
        assert_eq!(h.pop_min().unwrap().0 .0, 3);
    }

    #[test]
    fn map_priorities_preserves_order() {
        let mut h: IndexedMinHeap<PageId, f64> = IndexedMinHeap::new();
        for (i, p) in [(1u32, 3.0), (2, 1.0), (3, f64::INFINITY), (4, 0.5)] {
            h.insert(PageId(i), p);
        }
        h.map_priorities(|p| p * 0.5);
        assert_eq!(h.priority(&PageId(1)), Some(1.5));
        assert_eq!(h.priority(&PageId(3)), Some(f64::INFINITY));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_min().map(|(i, _)| i.0)).collect();
        assert_eq!(order, vec![4, 2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "already in heap")]
    fn double_insert_panics() {
        let mut h: IndexedMinHeap<PageId, f64> = IndexedMinHeap::new();
        h.insert(PageId(1), 1.0);
        h.insert(PageId(1), 2.0);
    }
}
