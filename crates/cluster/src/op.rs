//! Operations: the unit of work whose response time the goals constrain.

use dmm_buffer::{ClassId, PageId};
use dmm_obs::StageNanos;
use dmm_sim::SimTime;

use crate::ids::{NodeId, OpId};

/// Pages a [`PageList`] holds inline; the largest count that keeps the list
/// at 32 bytes, well above the workloads' 4 pages per operation.
const INLINE_PAGES: usize = 7;

/// An operation's page sequence: inline up to 7 entries, on the heap
/// beyond, so building and dropping an ordinary operation never allocates.
/// Derefs to `[PageId]`.
#[derive(Clone)]
pub struct PageList(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        pages: [PageId; INLINE_PAGES],
    },
    Heap(Vec<PageId>),
}

impl PageList {
    /// An empty list.
    pub fn new() -> Self {
        PageList(Repr::Inline {
            len: 0,
            pages: [PageId(0); INLINE_PAGES],
        })
    }

    /// Appends `page`.
    pub fn push(&mut self, page: PageId) {
        match &mut self.0 {
            Repr::Inline { len, pages } if usize::from(*len) < INLINE_PAGES => {
                pages[usize::from(*len)] = page;
                *len += 1;
            }
            Repr::Inline { pages, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_PAGES);
                spilled.extend_from_slice(pages);
                spilled.push(page);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(v) => v.push(page),
        }
    }
}

impl Default for PageList {
    fn default() -> Self {
        PageList::new()
    }
}

impl std::ops::Deref for PageList {
    type Target = [PageId];
    #[inline]
    fn deref(&self) -> &[PageId] {
        match &self.0 {
            Repr::Inline { len, pages } => &pages[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a PageList {
    type Item = &'a PageId;
    type IntoIter = std::slice::Iter<'a, PageId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<PageId> for PageList {
    fn from_iter<I: IntoIterator<Item = PageId>>(iter: I) -> Self {
        let mut list = PageList::new();
        for page in iter {
            list.push(page);
        }
        list
    }
}

impl PartialEq for PageList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PageList {}

impl std::fmt::Debug for PageList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One operation: a sequence of page accesses executed at its origin node by
/// data shipping (§3). Accesses run sequentially; the operation is
/// disk-bound, so its response time is dominated by the accesses that miss.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Unique id.
    pub id: OpId,
    /// Workload class.
    pub class: ClassId,
    /// Node where the operation was initiated.
    pub origin: NodeId,
    /// Pages accessed, in order.
    pub pages: PageList,
    /// Arrival instant.
    pub arrival: SimTime,
}

/// Completion record handed back to the measurement layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCompletion {
    /// The finished operation.
    pub id: OpId,
    /// Its class.
    pub class: ClassId,
    /// Its origin node.
    pub origin: NodeId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// Per-stage response-time decomposition (simulated nanoseconds),
    /// present only for operations selected by the deterministic span
    /// sampler ([`SpanMode::Sampled`](dmm_obs::SpanMode::Sampled)).
    pub span: Option<StageNanos>,
}

impl OpCompletion {
    /// Response time in milliseconds.
    pub fn response_ms(&self) -> f64 {
        self.finished.since(self.arrival).as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_list_spills_past_its_inline_capacity_and_keeps_order() {
        assert!(std::mem::size_of::<PageList>() <= 32);
        let mut list = PageList::new();
        assert!(list.is_empty());
        for i in 0..20u32 {
            list.push(PageId(i));
            assert_eq!(list.len(), i as usize + 1);
            assert!(list.iter().copied().eq((0..=i).map(PageId)));
        }
        let collected: PageList = (0..20).map(PageId).collect();
        assert_eq!(list, collected);
        assert_ne!(list, PageList::new());
    }

    #[test]
    fn response_time() {
        let c = OpCompletion {
            id: OpId(1),
            class: ClassId(1),
            origin: NodeId(0),
            arrival: SimTime::from_nanos(1_000_000),
            finished: SimTime::from_nanos(3_500_000),
            span: None,
        };
        assert!((c.response_ms() - 2.5).abs() < 1e-12);
    }
}
