//! Hierarchical timing wheel: the allocation-free event queue behind
//! [`crate::Scheduler`].
//!
//! # Geometry
//!
//! Eight levels of 64 slots each ([`WHEEL_LEVELS`] × [`WHEEL_SLOTS`]). The
//! tick is exactly one nanosecond — the resolution of [`SimTime`] — so no
//! rounding ever happens and the wheel's delivery order is a pure function
//! of the (time, insertion-sequence) pairs, just like the reference binary
//! heap. Level `l` buckets events by bits `[6l, 6(l+1))` of their absolute
//! nanosecond time; together the levels span `2^48` ns (≈ 78 hours of
//! simulated time). Events further out than that go to a single *overflow*
//! chain and are re-bucketed when the wheel rolls over into their epoch.
//!
//! # Storage
//!
//! Every pending event lives in one slab node addressed by a `u32`
//! index; per-slot FIFO chains are intrusive `next` links, and freed nodes
//! go on a free list. After warm-up, pushing and popping events allocates
//! nothing. Per-level occupancy is a single `u64` bitmap, so "find the next
//! non-empty slot" is one mask and a `trailing_zeros` — the wheel never
//! iterates over empty ticks.
//!
//! # Determinism
//!
//! The wheel's position advances eagerly to (a lower bound of) the next
//! event, cascading any higher-level slot it enters down to finer levels.
//! Because of that eager cascade, *the level and slot of a pending event
//! are a pure function of its time and the current position* — two events
//! scheduled for the same instant always sit in the same chain, in
//! insertion order, no matter how far apart they were scheduled. Delivery
//! order is therefore exactly (time, seq): identical to a binary-heap
//! reference, which the differential tests at the end of this module
//! assert.
//!
//! # Direct dispatch
//!
//! Most events of a protocol chain are scheduled a few microseconds ahead
//! of an otherwise sparse queue, so they would be the next event delivered
//! anyway. The wheel keeps one such event, the *front*, outside its levels:
//! a push whose time lies strictly below every wheel entry's time becomes
//! the front, and a pop delivers the front without touching the levels.
//! The invariant is that the front's time is *strictly* below every wheel
//! entry's time, so delivering it first is exactly (time, seq) order:
//!
//! * a push earlier than the front demotes the front into the wheel and
//!   takes its place;
//! * a push at the front's own time demotes the front and is appended to
//!   the wheel after it, so same-instant events keep scheduling order in
//!   one chain;
//! * a later push goes into the wheel.
//!
//! With no front, a push becomes the front when the wheel is empty, or when
//! it holds at most [`WHEEL_SLOTS`] entries and the push's time is below a
//! cached lower bound (the *floor*) of the wheel's earliest entry. The
//! floor is lowered on every wheel insert and reset by every wheel pop from
//! the occupancy bits the pop just read; when the next entry lies on a
//! coarser level it is recomputed, read-only and without cascading, at the
//! next push. Deeper queues skip the front: a new event is then rarely the
//! earliest, and the floor upkeep would cost more than it saves.
//!
//! A front delivery leaves the wheel position where it was: the position
//! only has to stay at or below every pending time, which a lagging
//! position does, and the level and slot an entry lands on stay a pure
//! function of its time and that position. The floor and the depth limit
//! decide only *where* an event waits, never the delivery order.

use crate::time::SimTime;

/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub const WHEEL_SLOTS: usize = 1 << SLOT_BITS;
/// Number of hierarchical levels; together they span `2^48` ns.
pub const WHEEL_LEVELS: usize = 8;
/// Bits of absolute time covered by the wheel levels.
const SPAN_BITS: u32 = SLOT_BITS * WHEEL_LEVELS as u32;
/// Null link / free-list terminator.
const NIL: u32 = u32::MAX;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Wheel entries above which a push no longer tries for the front slot.
/// With that many events pending a new one is rarely the earliest, and
/// keeping the floor current costs more than the few deliveries it saves.
const FRONT_MAX_PENDING: usize = WHEEL_SLOTS;

struct Node<E> {
    time: u64,
    /// Monotone scheduling sequence; kept for debug assertions (FIFO chains
    /// already deliver same-instant events in scheduling order).
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// An intrusive FIFO chain through the slab (head/tail indices).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };
}

/// The event held outside the wheel levels (see "Direct dispatch" above).
struct Front<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// The timing-wheel backend. All methods are crate-private; the public
/// surface is [`crate::Scheduler`].
pub(crate) struct TimingWheel<E> {
    arena: Vec<Node<E>>,
    /// Free-list head into `arena` (linked through `Node::next`).
    free: u32,
    slots: [[Chain; WHEEL_SLOTS]; WHEEL_LEVELS],
    /// One occupancy bit per slot per level.
    occupied: [u64; WHEEL_LEVELS],
    /// Events beyond the wheel span, in insertion order.
    overflow: Chain,
    /// Current wheel position in ticks (= nanoseconds). Only advances.
    pos: u64,
    /// Events in the wheel levels and the overflow (the front excluded).
    len: usize,
    /// The next event, held outside the levels; its time is strictly below
    /// every wheel entry's.
    front: Option<Front<E>>,
    /// A lower bound of the earliest wheel entry's time, unless the wheel
    /// is empty or `floor_stale`.
    floor: u64,
    /// `floor` must be recomputed before it is read: a wheel pop removed
    /// the entry it was bounded by, and the next one is on a coarser level.
    floor_stale: bool,
    /// Events delivered from the front.
    direct: u64,
    /// Entries moved by cascades (including overflow re-bucketing).
    cascaded: u64,
    /// Events inserted per level (`[WHEEL_LEVELS]` counts the overflow).
    /// Cascade re-links are not re-counted: each event is attributed to the
    /// level its original `push` landed on.
    level_pushes: [u64; WHEEL_LEVELS + 1],
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            arena: Vec::new(),
            free: NIL,
            slots: [[Chain::EMPTY; WHEEL_SLOTS]; WHEEL_LEVELS],
            occupied: [0; WHEEL_LEVELS],
            overflow: Chain::EMPTY,
            pos: 0,
            len: 0,
            front: None,
            floor: 0,
            floor_stale: false,
            direct: 0,
            cascaded: 0,
            level_pushes: [0; WHEEL_LEVELS + 1],
        }
    }

    /// Pending events, the front included.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len + usize::from(self.front.is_some())
    }

    pub(crate) fn cascaded(&self) -> u64 {
        self.cascaded
    }

    /// Events delivered from the front, without entering the levels.
    pub(crate) fn direct(&self) -> u64 {
        self.direct
    }

    /// Whether an event waits in the front.
    pub(crate) fn front_pending(&self) -> bool {
        self.front.is_some()
    }

    pub(crate) fn level_pushes(&self) -> &[u64; WHEEL_LEVELS + 1] {
        &self.level_pushes
    }

    /// Inserts an event. `time` must not precede the wheel position (the
    /// scheduler's `now` is always ≥ the position, and it checks
    /// `time ≥ now`).
    #[inline]
    pub(crate) fn push(&mut self, time: u64, seq: u64, event: E) {
        debug_assert!(time >= self.pos, "push into the wheel's past");
        match &self.front {
            None => {
                if self.len == 0 || (self.len <= FRONT_MAX_PENDING && time < self.wheel_floor()) {
                    self.front = Some(Front { time, seq, event });
                    return;
                }
            }
            Some(front) if time <= front.time => {
                // Demote the front; at a tie the new event follows it into
                // the same chain.
                let old = self.front.take().expect("front checked present");
                let earlier = time < old.time;
                self.insert(old.time, old.seq, old.event);
                if earlier {
                    self.front = Some(Front { time, seq, event });
                    return;
                }
            }
            Some(_) => {}
        }
        self.insert(time, seq, event);
    }

    /// Links an event into the wheel levels (or the overflow).
    #[inline]
    fn insert(&mut self, time: u64, seq: u64, event: E) {
        let idx = self.alloc(time, seq, event);
        let level = self.link(idx, time);
        self.level_pushes[level] += 1;
        self.len += 1;
        if self.len == 1 {
            self.floor = time;
            self.floor_stale = false;
        } else {
            self.floor = self.floor.min(time);
        }
    }

    /// A lower bound of the earliest wheel entry's time (wheel non-empty),
    /// recomputed first if a pop may have raised it.
    #[inline]
    fn wheel_floor(&mut self) -> u64 {
        if self.floor_stale {
            self.floor = self.scan_floor();
            self.floor_stale = false;
        }
        self.floor
    }

    /// A lower bound of the earliest wheel entry's time, read off the
    /// occupancy bitmaps without moving anything: exact on level 0 and for
    /// a single-event chain on a coarser level, else the start of the
    /// first occupied coarser slot, and the start of the next wheel epoch
    /// when only the overflow holds events.
    fn scan_floor(&self) -> u64 {
        let cursor = (self.pos & SLOT_MASK) as u32;
        let mask = self.occupied[0] & (!0u64 << cursor);
        if mask != 0 {
            return (self.pos & !SLOT_MASK) | u64::from(mask.trailing_zeros());
        }
        match self.next_occupied_slot() {
            Some((level, slot, slot_start)) => self.chain_floor(level, slot, slot_start),
            None => (self.pos | ((1 << SPAN_BITS) - 1)).saturating_add(1),
        }
    }

    /// Removes and returns the earliest event if its time is ≤ `limit`.
    ///
    /// Advances the wheel position as far as needed — but never past
    /// `limit`, so a later `push` at any `time ≥ limit` stays valid even
    /// when this returns `None`.
    #[inline]
    pub(crate) fn pop_next_before(&mut self, limit: u64) -> Option<(SimTime, E)> {
        if let Some(front) = &self.front {
            if front.time > limit {
                return None;
            }
            let front = self.front.take().expect("front checked present");
            self.direct += 1;
            return Some((SimTime::from_nanos(front.time), front.event));
        }
        if self.len == 0 {
            return None;
        }
        self.pop_wheel(limit)
    }

    /// A lower bound of the times in occupied slot `slot` of `level`,
    /// which starts at `slot_start`: the one entry's time for a
    /// single-event chain (the next entry to be delivered, so reading it
    /// early costs no extra miss), else the slot start.
    #[inline]
    fn chain_floor(&self, level: usize, slot: usize, slot_start: u64) -> u64 {
        let chain = self.slots[level][slot];
        if chain.head == chain.tail {
            self.arena[chain.head as usize].time
        } else {
            slot_start
        }
    }

    /// [`Self::pop_next_before`] from the wheel levels, with no front. A
    /// delivery leaves the floor exact when the next entry is on the same
    /// level, a slot start when it is in a later slot of that level, and
    /// stale otherwise; a refusal moves no entry, so the floor stays valid.
    fn pop_wheel(&mut self, limit: u64) -> Option<(SimTime, E)> {
        loop {
            // Near-future fast path: level 0 has one slot per tick, so the
            // first occupied slot at or after the cursor is the next event,
            // found with one mask + trailing_zeros.
            let cursor = (self.pos & SLOT_MASK) as u32;
            let mask = self.occupied[0] & (!0u64 << cursor);
            if mask != 0 {
                let slot = mask.trailing_zeros() as u64;
                let t = (self.pos & !SLOT_MASK) | slot;
                if t > limit {
                    return None;
                }
                self.pos = t;
                let event = self.pop_front_level0(slot as usize);
                // Whatever is left on level 0 lies at or after `t`.
                let rest = self.occupied[0] & (!0u64 << slot);
                self.floor = (self.pos & !SLOT_MASK) | u64::from(rest.trailing_zeros());
                self.floor_stale = rest == 0;
                return Some((SimTime::from_nanos(t), event));
            }
            // Coarser levels: enter the first occupied slot ahead of the
            // cursor and cascade its chain down, then rescan from level 0.
            if let Some((level, slot, slot_start)) = self.next_occupied_slot() {
                let chain = self.slots[level][slot];
                if chain.head == chain.tail {
                    // Single-event chain: that event is the wheel's global
                    // minimum (finer levels ahead are empty — just scanned —
                    // and coarser levels hold strictly later times), so
                    // deliver it directly instead of walking it down level
                    // by level. This is the common case in sparse regimes.
                    let t = self.arena[chain.head as usize].time;
                    if t > limit {
                        return None;
                    }
                    self.pos = t;
                    self.slots[level][slot] = Chain::EMPTY;
                    self.occupied[level] &= !(1u64 << slot);
                    let node = &mut self.arena[chain.head as usize];
                    let event = node.event.take().expect("linked node holds an event");
                    node.next = self.free;
                    self.free = chain.head;
                    self.len -= 1;
                    // Finer levels stay empty, so the next entry is in a
                    // later slot of this level or on a coarser one.
                    let rest = self.occupied[level] & (!0u64 << slot);
                    self.floor_stale = rest == 0;
                    if rest != 0 {
                        let next = rest.trailing_zeros() as usize;
                        let shift = SLOT_BITS * level as u32;
                        let rotation = t >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
                        self.floor =
                            self.chain_floor(level, next, rotation | (next as u64) << shift);
                    }
                    return Some((SimTime::from_nanos(t), event));
                }
                if slot_start > limit {
                    return None;
                }
                self.pos = slot_start;
                self.cascade(level, slot);
                continue;
            }
            // Every wheel level is empty: all pending events sit in the
            // overflow chain, at least one full wheel span ahead. Roll the
            // wheel over to the epoch of the earliest one and re-bucket.
            let min_t = self.overflow_min();
            if min_t > limit {
                return None;
            }
            self.pos = min_t >> SPAN_BITS << SPAN_BITS;
            self.rebucket_overflow();
        }
    }

    /// First occupied slot strictly ahead of the cursor, lowest level
    /// first: `(level, slot, slot start time)`. The slot *containing* the
    /// position is always empty at levels ≥ 1 (its events cascaded to finer
    /// levels when the position entered it), hence "strictly".
    fn next_occupied_slot(&self) -> Option<(usize, usize, u64)> {
        for level in 1..WHEEL_LEVELS {
            let shift = SLOT_BITS * level as u32;
            let cursor = ((self.pos >> shift) & SLOT_MASK) as u32;
            let mask = self.occupied[level] & (!0u64 << cursor) & !(1u64 << cursor);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let rotation = self.pos >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
                let slot_start = rotation | (slot as u64) << shift;
                return Some((level, slot, slot_start));
            }
        }
        None
    }

    /// Moves every event of `slots[level][slot]` down to its level for the
    /// (just advanced) position, preserving chain order — which is what
    /// keeps same-instant events in scheduling order end to end.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut cur = self.slots[level][slot].head;
        self.slots[level][slot] = Chain::EMPTY;
        self.occupied[level] &= !(1u64 << slot);
        while cur != NIL {
            let next = self.arena[cur as usize].next;
            let time = self.arena[cur as usize].time;
            self.link(cur, time);
            self.cascaded += 1;
            cur = next;
        }
    }

    /// Minimum time in the overflow chain (only called when non-empty).
    fn overflow_min(&self) -> u64 {
        let mut min = u64::MAX;
        let mut cur = self.overflow.head;
        debug_assert_ne!(cur, NIL, "wheels empty but no overflow");
        while cur != NIL {
            let node = &self.arena[cur as usize];
            min = min.min(node.time);
            cur = node.next;
        }
        min
    }

    /// Re-links every overflow event against the new position, in chain
    /// order (events still beyond the span re-append to the overflow,
    /// keeping their relative order).
    fn rebucket_overflow(&mut self) {
        let mut cur = self.overflow.head;
        self.overflow = Chain::EMPTY;
        while cur != NIL {
            let next = self.arena[cur as usize].next;
            let time = self.arena[cur as usize].time;
            self.link(cur, time);
            self.cascaded += 1;
            cur = next;
        }
    }

    /// Appends node `idx` to the chain for `time` given the current
    /// position; returns the level index (`WHEEL_LEVELS` = overflow).
    #[inline]
    fn link(&mut self, idx: u32, time: u64) -> usize {
        let delta = time ^ self.pos;
        if delta >> SPAN_BITS != 0 {
            Self::append(&mut self.arena, &mut self.overflow, idx);
            return WHEEL_LEVELS;
        }
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((time >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        Self::append(&mut self.arena, &mut self.slots[level][slot], idx);
        self.occupied[level] |= 1u64 << slot;
        level
    }

    fn append(arena: &mut [Node<E>], chain: &mut Chain, idx: u32) {
        arena[idx as usize].next = NIL;
        if chain.head == NIL {
            chain.head = idx;
        } else {
            arena[chain.tail as usize].next = idx;
        }
        chain.tail = idx;
    }

    /// Pops the FIFO head of a level-0 slot (all its events share one tick).
    fn pop_front_level0(&mut self, slot: usize) -> E {
        let idx = self.slots[0][slot].head;
        debug_assert_ne!(idx, NIL, "occupancy bit set on empty slot");
        let next = self.arena[idx as usize].next;
        debug_assert!(
            next == NIL || self.arena[next as usize].seq > self.arena[idx as usize].seq,
            "level-0 chains must keep scheduling order"
        );
        self.slots[0][slot].head = next;
        if next == NIL {
            self.slots[0][slot].tail = NIL;
            self.occupied[0] &= !(1u64 << slot);
        }
        let node = &mut self.arena[idx as usize];
        let event = node.event.take().expect("linked node holds an event");
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        event
    }

    fn alloc(&mut self, time: u64, seq: u64, event: E) -> u32 {
        let node = Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.arena[idx as usize].next;
            self.arena[idx as usize] = node;
            idx
        } else {
            assert!(self.arena.len() < NIL as usize, "too many pending events");
            self.arena.push(node);
            (self.arena.len() - 1) as u32
        }
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("pos", &self.pos)
            .field("cascaded", &self.cascaded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = w.pop_next_before(u64::MAX) {
            out.push((t.as_nanos(), e));
        }
        out
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(500, 0, 0);
        w.push(20, 1, 1);
        w.push(500, 2, 2);
        w.push(0, 3, 3);
        assert_eq!(drain(&mut w), vec![(0, 3), (20, 1), (500, 0), (500, 2)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_instant_burst_mixing_levels_keeps_scheduling_order() {
        // Event 0 is scheduled far ahead (lands on a coarse level); event 1
        // for the same instant is scheduled after time has advanced close
        // to it (lands on level 0 directly). The cascade must still deliver
        // 0 before 1.
        let mut w = TimingWheel::new();
        w.push(100, 0, 0);
        w.push(90, 1, 9);
        let (t, e) = w.pop_next_before(u64::MAX).unwrap();
        assert_eq!((t.as_nanos(), e), (90, 9));
        w.push(100, 2, 1); // near-future direct insert, same instant as 0
        assert_eq!(drain(&mut w), vec![(100, 0), (100, 1)]);
    }

    #[test]
    fn crosses_every_level_boundary() {
        let mut w = TimingWheel::new();
        let mut times = Vec::new();
        for level in 0..WHEEL_LEVELS as u32 {
            let base = 1u64 << (SLOT_BITS * level);
            for t in [base - 1, base, base + 1] {
                times.push(t);
            }
        }
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, i as u32);
        }
        let out = drain(&mut w);
        let mut sorted: Vec<u64> = times.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // times list is strictly increasing per construction except the
        // shared 0-level overlap; assert global time order.
        assert_eq!(out.len(), times.len());
        for pair in out.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn overflow_rolls_over_and_delivers() {
        let mut w = TimingWheel::new();
        let span = 1u64 << SPAN_BITS;
        w.push(3, 0, 0);
        w.push(span + 5, 1, 1); // next wheel epoch
        w.push(u64::MAX, 2, 2); // saturated `after` lands here
        w.push(4 * span + 7, 3, 3);
        assert_eq!(
            drain(&mut w),
            vec![(3, 0), (span + 5, 1), (4 * span + 7, 3), (u64::MAX, 2)]
        );
        assert!(w.cascaded() > 0, "overflow re-bucketing counts as cascade");
    }

    #[test]
    fn pop_respects_limit_and_later_pushes_stay_valid() {
        let mut w = TimingWheel::new();
        w.push(5, 0, 0);
        w.push(1_000_000, 1, 1);
        assert_eq!(w.pop_next_before(10).map(|(t, _)| t.as_nanos()), Some(5));
        // Next event is far away; the probe must not advance the position
        // past the limit…
        assert_eq!(w.pop_next_before(10), None);
        // …so a push between the limit and the far event still works and
        // comes out first.
        w.push(12, 2, 2);
        assert_eq!(
            drain(&mut w),
            vec![(12, 2), (1_000_000, 1)],
            "intermediate push after a bounded probe must be delivered"
        );
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut w = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.push(round * 1000 + i, round * 100 + i, i as u32);
            }
            while w.pop_next_before(u64::MAX).is_some() {}
        }
        assert!(w.arena.len() <= 100, "arena grew past peak pending");
    }
}

/// Differential tests: the wheel must deliver the exact same (time, event)
/// sequence as a binary-heap reference for arbitrary schedules — including
/// clustered near-future delays, far-future outliers that land in the
/// overflow chain, same-instant bursts, horizon boundary probes, and delays
/// sized to straddle wheel level boundaries and force cascades.
#[cfg(test)]
mod differential {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::SimRng;

    /// The operations the chaos workload needs from an event queue.
    trait Queue: Default {
        fn push(&mut self, time: u64, seq: u64, event: u32);
        fn pop_next_before(&mut self, limit: u64) -> Option<(u64, u32)>;
        fn len(&self) -> usize;
    }

    impl Default for TimingWheel<u32> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Queue for TimingWheel<u32> {
        fn push(&mut self, time: u64, seq: u64, event: u32) {
            TimingWheel::push(self, time, seq, event);
        }
        fn pop_next_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            TimingWheel::pop_next_before(self, limit).map(|(t, e)| (t.as_nanos(), e))
        }
        fn len(&self) -> usize {
            TimingWheel::len(self)
        }
    }

    /// The reference: a min-heap on (time, seq), O(log n) per operation.
    /// `seq` is unique, so the event never takes part in the ordering.
    #[derive(Default)]
    struct Heap(BinaryHeap<Reverse<(u64, u64, u32)>>);

    impl Queue for Heap {
        fn push(&mut self, time: u64, seq: u64, event: u32) {
            self.0.push(Reverse((time, seq, event)));
        }
        fn pop_next_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            match self.0.peek() {
                Some(Reverse((t, _, _))) if *t <= limit => {
                    self.0.pop().map(|Reverse((t, _, e))| (t, e))
                }
                _ => None,
            }
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// Delivered (time, event) pairs, in delivery order.
    type Log = Vec<(u64, u32)>;

    /// A chaos workload over queue `Q`, driven with the engine's clock
    /// rules: each delivered event logs itself and (driven by a per-run
    /// deterministic RNG) schedules up to two follow-ups with delays drawn
    /// from magnitude classes that cover every wheel level plus the
    /// overflow, with frequent zero delays to create same-instant bursts.
    struct Chaos<Q> {
        queue: Q,
        now: u64,
        next_seq: u64,
        delivered: u64,
        rng: SimRng,
        log: Log,
        next_id: u32,
        spawned: u32,
        budget: u32,
    }

    impl<Q: Queue> Chaos<Q> {
        fn new(seed: u64, budget: u32) -> Self {
            let mut chaos = Chaos {
                queue: Q::default(),
                now: 0,
                next_seq: 0,
                delivered: 0,
                rng: SimRng::seed_from_u64(seed),
                log: Vec::new(),
                next_id: 1_000,
                spawned: 0,
                budget,
            };
            let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
            for id in 0..32u32 {
                let t = rng.next_u64() % 10_000;
                chaos.at(t, id);
            }
            // Same-instant burst at a fixed tick and near a level boundary.
            for id in 100..108u32 {
                chaos.at(4_096, id);
            }
            chaos
        }

        fn at(&mut self, time: u64, event: u32) {
            assert!(time >= self.now, "cannot schedule into the past");
            self.queue.push(time, self.next_seq, event);
            self.next_seq += 1;
        }

        fn delay(&mut self) -> u64 {
            // Magnitude classes: 0 = same instant, then per-wheel-level
            // ranges (6 bits each), then far-future outliers past the
            // 48-bit span.
            let class = self.rng.index(11);
            match class {
                0 => 0,
                1..=8 => {
                    let bits = 6 * class as u32;
                    let lo = 1u64 << (bits - 6);
                    lo + self.rng.next_u64() % (1u64 << bits).saturating_sub(lo).max(1)
                }
                9 => 1u64 << 48, // exactly the wheel span: first overflow tick
                _ => (1u64 << 48) + self.rng.next_u64() % (1u64 << 52),
            }
        }

        /// Delivers every event up to `horizon`, then advances the clock to
        /// it (unless it is the end of time), like `Engine::run_until`.
        fn run_until(&mut self, horizon: u64) -> u64 {
            let mut n = 0;
            while let Some((now, event)) = self.queue.pop_next_before(horizon) {
                assert!(now >= self.now, "time went backwards");
                self.now = now;
                self.log.push((now, event));
                n += 1;
                for _ in 0..self.rng.index(3) {
                    if self.spawned >= self.budget {
                        break;
                    }
                    self.spawned += 1;
                    let id = self.next_id;
                    self.next_id += 1;
                    let d = self.delay();
                    self.at(now.saturating_add(d), id);
                }
            }
            self.delivered += n;
            if self.now < horizon && horizon != u64::MAX {
                self.now = horizon;
            }
            n
        }
    }

    #[test]
    fn wheel_and_heap_deliver_identical_sequences() {
        for seed in 0..48u64 {
            let mut wheel = Chaos::<TimingWheel<u32>>::new(seed, 4_000);
            let mut heap = Chaos::<Heap>::new(seed, 4_000);
            wheel.run_until(u64::MAX);
            heap.run_until(u64::MAX);
            assert_eq!(
                wheel.delivered, heap.delivered,
                "delivered count diverged (seed {seed})"
            );
            assert_eq!(wheel.now, heap.now, "final clock diverged (seed {seed})");
            assert_eq!(
                wheel.log, heap.log,
                "delivery sequence diverged (seed {seed})"
            );
            // Sanity: the schedule actually exercised interesting territory.
            assert!(wheel.log.len() > 100, "degenerate schedule (seed {seed})");
        }
    }

    /// Steps `chaos` through 64 random horizons, then drains it; returns
    /// the delivery log and a (delivered, clock, pending) checkpoint per
    /// step.
    fn stepped<Q: Queue>(seed: u64) -> (Log, Vec<(u64, u64, usize)>) {
        let mut chaos = Chaos::<Q>::new(seed, 2_000);
        let mut horizon_rng = SimRng::seed_from_u64(seed ^ 0x5151);
        let mut horizon = 0u64;
        let mut checkpoints = Vec::new();
        for _ in 0..64 {
            // Mixed step sizes: some smaller than typical event gaps (empty
            // intervals), some spanning cascade boundaries.
            let step = 1 + horizon_rng.next_u64() % (1u64 << (6 + horizon_rng.index(10) * 3));
            horizon = horizon.saturating_add(step);
            let n = chaos.run_until(horizon);
            checkpoints.push((n, chaos.now, chaos.queue.len()));
        }
        chaos.run_until(u64::MAX);
        checkpoints.push((chaos.delivered, chaos.now, 0));
        (chaos.log, checkpoints)
    }

    #[test]
    fn wheel_and_heap_agree_across_random_horizon_steps() {
        // Stepping at arbitrary horizons exercises the bounded-probe path
        // (failed peeks must not advance the wheel past the horizon) and
        // the drained-queue clock advance.
        for seed in 0..24u64 {
            let wheel = stepped::<TimingWheel<u32>>(seed);
            let heap = stepped::<Heap>(seed);
            assert_eq!(wheel.1, heap.1, "checkpoints diverged (seed {seed})");
            assert_eq!(wheel.0, heap.0, "delivery diverged (seed {seed})");
        }
    }

    /// One step of a scripted schedule.
    #[derive(Clone, Copy)]
    enum Step {
        /// Push at this time (the event id is the push's sequence number).
        Push(u64),
        /// `pop_next_before(limit)`.
        Pop(u64),
    }

    /// Plays `script` on queue `Q`: every pop's result, in order.
    fn play<Q: Queue>(q: &mut Q, script: &[Step]) -> Vec<Option<(u64, u32)>> {
        let mut seq = 0u64;
        let mut out = Vec::new();
        for &step in script {
            match step {
                Step::Push(t) => {
                    q.push(t, seq, seq as u32);
                    seq += 1;
                }
                Step::Pop(limit) => out.push(q.pop_next_before(limit)),
            }
        }
        out
    }

    /// Plays `script` on the wheel and on the heap reference, asserts they
    /// deliver the same sequence, and hands back the wheel for inspection.
    fn agree(script: &[Step]) -> TimingWheel<u32> {
        let mut wheel = TimingWheel::new();
        let mut heap = Heap::default();
        let from_wheel = play(&mut wheel, script);
        let from_heap = play(&mut heap, script);
        assert_eq!(from_wheel, from_heap);
        assert_eq!(Queue::len(&wheel), heap.len());
        wheel
    }

    #[test]
    fn a_push_at_the_fronts_time_follows_it_and_the_wheel_events_there() {
        use Step::*;
        // 40 becomes the front; a second push at 40 demotes it and follows
        // it into the wheel; a third finds no front but a wheel event at
        // 40, so it queues behind both. An earlier one then takes the front.
        let mut w = agree(&[Push(40), Push(90), Push(40), Push(40), Push(7)]);
        assert!(w.front_pending());
        assert_eq!(w.front.as_ref().map(|f| f.time), Some(7));
        let script_out: Vec<_> = std::iter::from_fn(|| w.pop_next_before(u64::MAX))
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(script_out, vec![(7, 4), (40, 0), (40, 2), (40, 3), (90, 1)]);
        assert_eq!(w.direct(), 1, "only the earliest push skipped the levels");
    }

    #[test]
    fn an_earlier_push_demotes_the_front() {
        use Step::*;
        let w = agree(&[
            Push(500),
            Push(300),
            Push(100),
            Pop(u64::MAX),
            Push(200),
            Pop(u64::MAX),
            Pop(u64::MAX),
            Pop(u64::MAX),
            Pop(u64::MAX),
        ]);
        // 500 and 300 were demoted in turn; 100 and 200 went out directly.
        assert_eq!(w.direct(), 2);
        assert_eq!(w.level_pushes().iter().sum::<u64>(), 2);
    }

    #[test]
    fn a_limit_below_the_front_returns_none_and_keeps_it() {
        use Step::*;
        let mut w = agree(&[Push(1_000), Push(5_000), Pop(999), Pop(0)]);
        assert!(w.front_pending(), "the refused front stays in place");
        assert_eq!(w.pos, 0, "a refused front moves nothing");
        let script = [Pop(1_000), Pop(4_999), Pop(5_000), Pop(u64::MAX)];
        let mut heap = Heap::default();
        play(&mut heap, &[Push(1_000), Push(5_000), Pop(999), Pop(0)]);
        assert_eq!(play(&mut w, &script), play(&mut heap, &script));
    }

    #[test]
    fn a_wheel_holding_only_overflow_events_still_takes_a_front() {
        use Step::*;
        let span = 1u64 << SPAN_BITS;
        // Both far events sit in the overflow; the floor is the next epoch
        // start, so a near push still becomes the front.
        let w = agree(&[
            Push(span + 9),
            Push(3 * span),
            Pop(10),
            Push(20),
            Pop(u64::MAX),
            Push(span + 9),
            Push(30),
            Pop(u64::MAX),
            Pop(u64::MAX),
            Pop(u64::MAX),
            Pop(u64::MAX),
            Pop(u64::MAX),
        ]);
        assert_eq!(w.len, 0);
        assert!(w.direct() >= 2, "the near pushes were delivered directly");
        assert_eq!(
            w.level_pushes()[WHEEL_LEVELS],
            3,
            "all far events overflowed"
        );
    }

    #[test]
    fn a_deep_queue_skips_the_front_and_keeps_the_order() {
        use Step::*;
        // 70 far events fill the wheel past the depth limit; near pushes
        // then wait in the levels, and the order still matches the heap.
        let mut script: Vec<Step> = (0..70).map(|i| Push(1_000_000 + i * 1_000)).collect();
        script.extend([Push(50), Push(50), Push(20), Pop(u64::MAX), Pop(u64::MAX)]);
        let w = agree(&script);
        assert_eq!(w.direct(), 0, "no front above the depth limit");
        assert!(!w.front_pending());
        // Drained, a push takes the front again.
        script.extend((0..71).map(|_| Pop(u64::MAX)));
        script.extend([
            Push(5_000_000),
            Push(4_000_000),
            Pop(u64::MAX),
            Pop(u64::MAX),
        ]);
        let w = agree(&script);
        assert_eq!(w.direct(), 1);
    }

    #[test]
    fn a_horizon_between_two_run_until_calls_keeps_the_order() {
        // Drive both queues like the engine: deliver up to one horizon,
        // advance the clock to it, schedule relative to it, deliver up to
        // the next. The wheel position lags behind the clock after direct
        // deliveries; later pushes must still come out in order.
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0xF00D + seed);
            let mut script = Vec::new();
            let mut now = 0u64;
            for _ in 0..40 {
                for _ in 0..rng.index(4) {
                    let d = match rng.index(4) {
                        0 => 0,
                        1 => rng.next_u64() % 64,
                        2 => rng.next_u64() % 100_000,
                        _ => rng.next_u64() % (1 << 30),
                    };
                    script.push(Step::Push(now + d));
                }
                let horizon = now + rng.next_u64() % 200_000;
                for _ in 0..1 + rng.index(6) {
                    script.push(Step::Pop(horizon));
                }
                now = horizon;
            }
            script.push(Step::Pop(u64::MAX));
            let w = agree(&script);
            let pushes = script.iter().filter(|s| matches!(s, Step::Push(_))).count() as u64;
            assert_eq!(
                w.level_pushes().iter().sum::<u64>() + w.direct() + u64::from(w.front_pending()),
                pushes,
                "seed {seed}: every push counted once"
            );
        }
    }

    fn saturated<Q: Queue>() -> Log {
        let mut q = Q::default();
        for (seq, (t, e)) in [(u64::MAX - 1, 0), (u64::MAX, 1), (3, 2), (u64::MAX, 3)]
            .into_iter()
            .enumerate()
        {
            q.push(t, seq as u64, e);
        }
        std::iter::from_fn(|| q.pop_next_before(u64::MAX)).collect()
    }

    #[test]
    fn wheel_and_heap_agree_on_saturated_far_future() {
        // Events at (or saturated to) the end of time must come out last,
        // in scheduling order.
        let expected = vec![(3, 2), (u64::MAX - 1, 0), (u64::MAX, 1), (u64::MAX, 3)];
        assert_eq!(saturated::<TimingWheel<u32>>(), expected);
        assert_eq!(saturated::<Heap>(), expected);
    }
}
