//! Deterministic future-event list.
//!
//! The queue is a four-ary indexed heap keyed by `(time, sequence)`. The
//! sequence number makes simultaneous events pop in insertion order,
//! which keeps entire simulations bit-for-bit reproducible — a property
//! the hardware counter experiments (Fig. 3/10 of the paper) rely on.
//!
//! Every heap entry carries the index of a stable *slot* holding the
//! event payload, and every slot knows its current heap position, so
//! [`cancel`](EventQueue::cancel) removes the entry in place in
//! O(log n) — no tombstone set, and `pop` never probes a hash table to
//! ask "was this cancelled?". Slots are generation-counted, so the
//! [`EventId`] of an already-fired event can never alias a newer one.
//!
//! The slot arena is three parallel vectors (heap position, generation,
//! payload), so moving a heap entry writes the entry plus one dense
//! `u32`, never a payload-sized slot. Sifts move a *hole* rather than
//! swapping: each level costs one entry copy instead of two plus two
//! position updates. `pop` removes the root bottom-up — the hole walks
//! to a leaf along the smallest of the four children, then the former
//! last entry sifts up from there, which saves the per-level comparison
//! against that entry (it almost always belongs near the bottom). Keys
//! compare as one `u128` (`time << 64 | seq`). The four-ary layout
//! halves tree depth versus a binary heap; a level's four 24-byte
//! children span two cache lines.
//!
//! [`bulk_cancel`](EventQueue::bulk_cancel) is the one lazy path: it
//! tombstones entries instead of restructuring per id, and `pop`/`peek`
//! discard tombstones at the front.

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// Packs a slot index and a generation counter; ids of fired or
/// cancelled events go stale and are rejected by
/// [`cancel`](EventQueue::cancel).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap entry: ordering key plus the payload slot. Tombstoned entries
/// (from [`EventQueue::bulk_cancel`]) use `slot == TOMBSTONE`.
#[derive(Clone, Copy)]
struct HeapEnt {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEnt {
    /// `(time, seq)` as one integer, so a comparison is a single
    /// 128-bit compare instead of a branch per tuple field.
    #[inline]
    fn key(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }
}

const TOMBSTONE: u32 = u32::MAX;

/// A future-event list with deterministic ordering, O(log n) push/pop
/// and O(log n) in-place cancellation.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(30), "c");
/// q.push(SimTime(10), "a");
/// q.push(SimTime(10), "b"); // same instant: FIFO order preserved
/// assert_eq!(q.pop(), Some((SimTime(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime(30), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: Vec<HeapEnt>,
    /// Per slot: current index of the slot's entry in `heap`.
    pos: Vec<u32>,
    /// Per slot: bumped when the slot is vacated; stale [`EventId`]s
    /// never match.
    gen: Vec<u32>,
    /// Per slot: payload; `None` while the slot sits on the free list.
    events: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    tombstones: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            pos: Vec::new(),
            gen: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            tombstones: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation "now").
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time —
    /// scheduling into the past is always a logic bug.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.insert(time, seq, event)
    }

    /// Schedules `event` at `time` under an explicit sequence key
    /// instead of the queue's own insertion counter.
    ///
    /// This is the shard-merge entry point: a parallel engine replays
    /// the sequential engine's global push order by assigning each
    /// event the sequence number it would have received from the single
    /// global queue, so `(time, seq)` ordering — and therefore every
    /// same-instant tie-break — stays bit-identical to a sequential
    /// run. The internal counter is bumped past `seq` so later plain
    /// [`push`](Self::push) calls still sort after it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        self.insert(time, seq, event)
    }

    /// Rewrites the sequence key of a still-pending event in place
    /// (O(log n)), restoring heap order. Returns `false` for fired,
    /// cancelled, or unknown ids.
    ///
    /// The shard merge uses this to resolve *provisional* sequence
    /// numbers (handed out while a shard executes a window in
    /// isolation) to the *final* global numbers computed by the
    /// deterministic cross-shard merge.
    pub fn set_seq(&mut self, id: EventId, seq: u64) -> bool {
        let Some(slot) = self.live_slot(id) else {
            return false;
        };
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        let pos = self.pos[slot] as usize; // live_slot checked the slot; pos tracks every heap move
        let mut ent = self.heap[pos]; // a live slot's pos is < heap.len()
        ent.seq = seq;
        self.restore(pos, ent);
        true
    }

    /// Like [`pop`](Self::pop), but also returns the event's sequence
    /// key, which the shard merge logs to reconstruct the global pop
    /// order.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let ent = self.pop_root()?;
            if ent.slot == TOMBSTONE {
                self.tombstones -= 1;
                continue;
            }
            let event = self
                .release(ent.slot)
                .expect("live heap entry has a payload"); // simlint: allow(R3): non-tombstone heap entries always hold a payload
            self.now = ent.time;
            return Some((ent.time, ent.seq, event));
        }
    }

    /// Returns the `(time, seq)` key of the next pending event without
    /// popping it (tombstones at the front are discarded).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let ent = *self.heap.first()?;
            if ent.slot != TOMBSTONE {
                return Some((ent.time, ent.seq));
            }
            self.pop_root();
            self.tombstones -= 1;
        }
    }

    /// Cancels a previously scheduled event, removing its heap entry in
    /// place (O(log n), no tombstone).
    ///
    /// Cancelling an already-fired, already-cancelled or unknown id is a
    /// true no-op that leaves no bookkeeping behind, and returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.live_slot(id) else {
            return false;
        };
        let pos = self.pos[slot] as usize; // live_slot checked the slot; pos tracks every heap move
        if let Some(last) = self.heap.pop() {
            if pos < self.heap.len() {
                self.restore(pos, last);
            }
        }
        self.release(id.slot());
        true
    }

    /// Cancels a batch of events lazily: entries are tombstoned where
    /// they stand (O(1) per id) and discarded when they surface, which
    /// beats per-id restructuring when a caller tears down many pending
    /// events at once. Returns how many ids were still live.
    pub fn bulk_cancel(&mut self, ids: impl IntoIterator<Item = EventId>) -> usize {
        let mut cancelled = 0;
        for id in ids {
            let Some(slot) = self.live_slot(id) else {
                continue;
            };
            let pos = self.pos[slot] as usize; // live_slot checked the slot; pos tracks every heap move
            self.heap[pos].slot = TOMBSTONE; // a live slot's pos is < heap.len()
            self.tombstones += 1;
            self.release(id.slot());
            cancelled += 1;
        }
        cancelled
    }

    /// Pops the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(time, _, event)| (time, event))
    }

    /// Returns the timestamp of the next pending event, if any, without
    /// popping it. Tombstoned (bulk-cancelled) entries at the front are
    /// discarded.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// Number of events still scheduled (bulk-cancelled tombstones not
    /// yet discarded are excluded).
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned heap entries not yet discarded — nonzero only between
    /// a [`bulk_cancel`](Self::bulk_cancel) and the pops/peeks that
    /// surface the lazily cancelled entries.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Stores `event` in a free slot and enters it into the heap under
    /// `(time, seq)`.
    fn insert(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduled event at {time:?} before now={:?}",
            self.now
        );
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = Some(event); // s popped from the free list: a live slot index
                s
            }
            None => {
                self.pos.push(0);
                self.gen.push(0);
                self.events.push(Some(event));
                self.events.len() as u32 - 1
            }
        };
        let ent = HeapEnt { time, seq, slot };
        self.heap.push(ent);
        self.sift_up(self.heap.len() - 1, ent);
        EventId::new(slot, self.gen[slot as usize]) // slot was allocated or reused just above
    }

    /// The slot index of `id` if it still names a pending event.
    fn live_slot(&self, id: EventId) -> Option<usize> {
        let slot = id.slot() as usize;
        let live = self.gen.get(slot) == Some(&id.gen())
            && self.events.get(slot).is_some_and(Option::is_some);
        live.then_some(slot)
    }

    /// Returns `slot` to the free list, invalidating outstanding ids,
    /// and hands back its payload.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = slot as usize;
        self.gen[s] = self.gen[s].wrapping_add(1); // slot ids handed out by insert() index the arena
        self.free.push(slot);
        self.events[s].take() // same arena index as gen
    }

    /// Writes `ent` at heap position `pos` and records the move in its
    /// slot.
    #[inline]
    fn place(&mut self, pos: usize, ent: HeapEnt) {
        self.heap[pos] = ent; // callers pass heap positions < heap.len()
        if ent.slot != TOMBSTONE {
            self.pos[ent.slot as usize] = pos as u32; // non-tombstone slots are live indices
        }
    }

    /// The smallest of the children `first..first + 4` that exist, with
    /// its key. `first` must be a valid position.
    ///
    /// Which child is smallest is a coin toss the branch predictor
    /// loses, so the running minimum is kept with masks, not branches.
    #[inline]
    fn min_child(&self, first: usize) -> (usize, u128) {
        let end = (first + 4).min(self.heap.len());
        let mut best = first;
        let mut best_key = u128::MAX;
        // callers check first < heap.len(), and end <= heap.len()
        for (child, ent) in (first..).zip(&self.heap[first..end]) {
            let key = ent.key();
            let take = ((key < best_key) as u128).wrapping_neg();
            best_key = key & take | best_key & !take;
            best = child & take as usize | best & !(take as usize);
        }
        (best, best_key)
    }

    /// Puts `ent` into the hole at `pos`, sifting whichever way restores
    /// heap order (at most one direction moves).
    fn restore(&mut self, pos: usize, ent: HeapEnt) {
        // pos > 0 guards the parent index
        if pos > 0 && ent.key() < self.heap[(pos - 1) / 4].key() {
            self.sift_up(pos, ent);
        } else {
            self.sift_down(pos, ent);
        }
    }

    /// Moves the hole at `pos` up past every parent larger than `ent`,
    /// then fills it with `ent`.
    fn sift_up(&mut self, mut pos: usize, ent: HeapEnt) {
        let key = ent.key();
        while pos > 0 {
            let parent = self.heap[(pos - 1) / 4]; // pos > 0 loop guard: the parent index is < pos
            if key >= parent.key() {
                break;
            }
            self.place(pos, parent);
            pos = (pos - 1) / 4;
        }
        self.place(pos, ent);
    }

    /// Moves the hole at `pos` down past every smallest child smaller
    /// than `ent`, then fills it with `ent`.
    fn sift_down(&mut self, mut pos: usize, ent: HeapEnt) {
        let key = ent.key();
        loop {
            let first = 4 * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let (best, best_key) = self.min_child(first);
            if best_key >= key {
                break;
            }
            self.place(pos, self.heap[best]); // min_child returns an index < heap.len()
            pos = best;
        }
        self.place(pos, ent);
    }

    /// Removes and returns the root entry, bottom-up: the hole left at
    /// the root follows the smallest child down to a leaf, and the
    /// former last entry sifts up from that leaf.
    fn pop_root(&mut self) -> Option<HeapEnt> {
        let last = self.heap.pop()?;
        let Some(&root) = self.heap.first() else {
            return Some(last);
        };
        let mut pos = 0;
        loop {
            let first = 4 * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let (best, _) = self.min_child(first);
            self.place(pos, self.heap[best]); // min_child returns an index < heap.len()
            pos = best;
        }
        self.sift_up(pos, last);
        Some(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 1u32);
        q.push(SimTime(1), 2);
        q.push(SimTime(5), 3);
        q.push(SimTime(3), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(7));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), ());
        q.pop();
        q.push(SimTime(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime(9)));
        assert_eq!(q.pop(), Some((SimTime(9), "b")));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_heavy_interleaving_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..1000u32 {
            q.push(SimTime(42), i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_after_fire_is_a_true_no_op() {
        // Regression: the old tombstone-set implementation leaked the
        // sequence number of an already-popped event into its cancelled
        // set forever. Cancel of a fired id must reject and leave zero
        // bookkeeping behind.
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        assert!(!q.cancel(a), "fired event must not cancel");
        assert!(!q.cancel(a), "repeat cancel still rejects");
        assert_eq!(q.len(), 1);
        assert_eq!(q.tombstones(), 0, "no-op cancel must leave no residue");
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert!(q.is_empty());
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn cancelled_then_reused_slot_rejects_stale_id() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), 1u32);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel rejects");
        // The slot is recycled for a fresh push; the stale id must not
        // reach the new occupant.
        let b = q.push(SimTime(3), 2u32);
        assert!(!q.cancel(a), "stale id must not hit recycled slot");
        assert_eq!(q.pop(), Some((SimTime(3), 2)));
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancel_in_the_middle_keeps_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64).map(|t| q.push(SimTime(t), t)).collect();
        for (t, id) in ids.iter().enumerate() {
            if t % 3 == 1 {
                assert!(q.cancel(*id));
            }
        }
        let mut expect: Vec<u64> = (0..100).filter(|t| t % 3 != 1).collect();
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_cancel_tombstones_then_drains() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10u64).map(|t| q.push(SimTime(t), t)).collect();
        let fired = q.pop().unwrap();
        assert_eq!(fired.1, 0);
        // Bulk-cancel evens (id 0 already fired) plus a stale repeat.
        let n = q.bulk_cancel(ids.iter().copied().step_by(2).chain([ids[0], ids[2]]));
        assert_eq!(n, 4, "ids 2,4,6,8 were live");
        assert_eq!(q.tombstones(), 4);
        assert_eq!(q.len(), 5);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
        assert_eq!(q.tombstones(), 0, "drain discards every tombstone");
    }

    #[test]
    fn peek_then_push_then_pop_stays_coherent() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 5u64);
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        q.push(SimTime(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        assert_eq!(q.pop(), Some((SimTime(5), 5)));
    }

    #[test]
    fn push_with_seq_orders_by_explicit_key() {
        let mut q = EventQueue::new();
        q.push_with_seq(SimTime(5), 10, "late");
        q.push_with_seq(SimTime(5), 3, "early");
        q.push_with_seq(SimTime(1), 99, "first");
        assert_eq!(q.pop_with_seq(), Some((SimTime(1), 99, "first")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(5), 3, "early")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(5), 10, "late")));
    }

    #[test]
    fn push_with_seq_bumps_internal_counter() {
        let mut q = EventQueue::new();
        q.push_with_seq(SimTime(5), 40, "explicit");
        q.push(SimTime(5), "plain"); // must sort after seq 40
        assert_eq!(q.pop(), Some((SimTime(5), "explicit")));
        assert_eq!(q.pop(), Some((SimTime(5), "plain")));
    }

    #[test]
    fn set_seq_reorders_pending_events() {
        let mut q = EventQueue::new();
        let a = q.push_with_seq(SimTime(7), 100, "a");
        q.push_with_seq(SimTime(7), 50, "b");
        assert_eq!(q.peek_key(), Some((SimTime(7), 50)));
        assert!(q.set_seq(a, 1)); // provisional → final, now ahead of b
        assert_eq!(q.peek_key(), Some((SimTime(7), 1)));
        assert_eq!(q.pop_with_seq(), Some((SimTime(7), 1, "a")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(7), 50, "b")));
    }

    #[test]
    fn set_seq_rejects_fired_and_stale_ids() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.pop();
        assert!(!q.set_seq(a, 0), "fired id must reject");
        let b = q.push(SimTime(2), "b");
        assert!(q.cancel(b));
        assert!(!q.set_seq(b, 0), "cancelled id must reject");
    }

    /// The pre-optimization queue — `BinaryHeap` plus lazily discarded
    /// stale entries — kept as a reference model for trace equivalence.
    /// Events are named by a handle; a cancelled handle leaves the live
    /// map, and a rekeyed one re-enters the heap under its new key, so
    /// every entry whose key no longer matches the map is stale.
    mod reference {
        use super::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        pub struct RefQueue<E> {
            heap: BinaryHeap<Reverse<(SimTime, u64, usize, E)>>,
            /// Pending handle → its current `(time, seq)` key.
            live: HashMap<usize, (SimTime, u64)>,
            next_handle: usize,
            next_seq: u64,
            pub now: SimTime,
        }

        impl<E: Ord + Clone> RefQueue<E> {
            pub fn new() -> Self {
                RefQueue {
                    heap: BinaryHeap::new(),
                    live: HashMap::new(),
                    next_handle: 0,
                    next_seq: 0,
                    now: SimTime::ZERO,
                }
            }

            /// Plain push; returns the handle and the seq it was given.
            pub fn push(&mut self, time: SimTime, event: E) -> (usize, u64) {
                let seq = self.next_seq;
                (self.push_with_seq(time, seq, event), seq)
            }

            pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> usize {
                assert!(time >= self.now);
                self.next_seq = self.next_seq.max(seq + 1);
                let h = self.next_handle;
                self.next_handle += 1;
                self.live.insert(h, (time, seq));
                self.heap.push(Reverse((time, seq, h, event)));
                h
            }

            pub fn cancel(&mut self, h: usize) -> bool {
                self.live.remove(&h).is_some()
            }

            pub fn set_seq(&mut self, h: usize, seq: u64) -> bool {
                let Some(&(time, old)) = self.live.get(&h) else {
                    return false;
                };
                self.next_seq = self.next_seq.max(seq + 1);
                let event = self
                    .heap
                    .iter()
                    .find(|Reverse((t, s, hh, _))| (*t, *s, *hh) == (time, old, h))
                    .map(|Reverse((.., e))| e.clone())
                    .expect("live handle has an entry");
                self.live.insert(h, (time, seq));
                self.heap.push(Reverse((time, seq, h, event)));
                true
            }

            /// Discards stale entries at the front.
            fn skip_stale(&mut self) {
                while let Some(Reverse((t, s, h, _))) = self.heap.peek() {
                    if self.live.get(h) == Some(&(*t, *s)) {
                        return;
                    }
                    self.heap.pop();
                }
            }

            pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
                self.skip_stale();
                let Reverse((t, seq, h, e)) = self.heap.pop()?;
                self.live.remove(&h);
                self.now = t;
                Some((t, seq, e))
            }

            pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
                self.skip_stale();
                self.heap.peek().map(|Reverse((t, s, ..))| (*t, *s))
            }

            pub fn len(&self) -> usize {
                self.live.len()
            }
        }
    }

    proptest::proptest! {
        /// The indexed heap must replay any interleaved script of plain
        /// and explicit-seq pushes, pops, cancels, bulk cancels, rekeys
        /// and peeks identically to the binary-heap reference. Explicit
        /// seqs are kept unique (as the sharded engine's are), so the
        /// pop order is fully determined by the keys.
        #[test]
        fn matches_binary_heap_reference_trace(
            script in proptest::collection::vec((0u8..10, 0u64..64), 1..400),
        ) {
            let mut fast = EventQueue::new();
            let mut slow = reference::RefQueue::new();
            // Parallel handles: fast_ids[i] and slow_ids[i] name one event.
            let mut fast_ids = Vec::new();
            let mut slow_ids = Vec::new();
            let mut used_seqs = std::collections::HashSet::new();
            // Times spread over only 8 ns, so most events share their
            // instant with others and the seq decides their order. Even
            // args draw seqs among the plain pushes' own (a final seq
            // resolving a provisional one); odd args draw seqs past
            // every plain seq so far, which the plain pushes after them
            // then interleave with.
            let fresh_seq = |arg: u64, used: &std::collections::HashSet<u64>| {
                let mut seq = if arg & 1 == 0 { arg * 7 } else { (1 << 40) + arg * 7 };
                while used.contains(&seq) {
                    seq += 1;
                }
                seq
            };
            let mut payload = 0u64;
            for (op, arg) in script {
                match op {
                    0 | 1 => {
                        // Push at or after now (always legal).
                        let t = SimTime(fast.now().as_nanos() + arg % 8);
                        fast_ids.push(fast.push(t, payload));
                        let (h, seq) = slow.push(t, payload);
                        slow_ids.push(h);
                        proptest::prop_assert!(used_seqs.insert(seq), "plain seq {} reused", seq);
                        payload += 1;
                    }
                    2 => {
                        let t = SimTime(fast.now().as_nanos() + arg / 8);
                        let seq = fresh_seq(arg, &used_seqs);
                        used_seqs.insert(seq);
                        fast_ids.push(fast.push_with_seq(t, seq, payload));
                        slow_ids.push(slow.push_with_seq(t, seq, payload));
                        payload += 1;
                    }
                    3 => {
                        let want = slow.pop_with_seq().map(|(t, _, e)| (t, e));
                        proptest::prop_assert_eq!(fast.pop(), want);
                        proptest::prop_assert_eq!(fast.now(), slow.now);
                    }
                    4 => {
                        proptest::prop_assert_eq!(fast.pop_with_seq(), slow.pop_with_seq());
                        proptest::prop_assert_eq!(fast.now(), slow.now);
                    }
                    _ if fast_ids.is_empty() => {}
                    5 | 6 => {
                        // Cancel an arbitrary id, possibly fired or
                        // cancelled already: both must agree it is a no-op.
                        let i = (arg as usize) % fast_ids.len();
                        proptest::prop_assert_eq!(fast.cancel(fast_ids[i]), slow.cancel(slow_ids[i]));
                    }
                    7 => {
                        // Rekey an arbitrary id to a fresh seq.
                        let i = (arg as usize) % fast_ids.len();
                        let seq = fresh_seq(arg, &used_seqs);
                        let rekeyed = fast.set_seq(fast_ids[i], seq);
                        proptest::prop_assert_eq!(rekeyed, slow.set_seq(slow_ids[i], seq));
                        if rekeyed {
                            used_seqs.insert(seq);
                        }
                    }
                    _ => {
                        // Bulk-cancel every third id from an offset, plus
                        // one repeat: stale and duplicate ids count zero.
                        let picks: Vec<usize> = (arg as usize % 3..fast_ids.len())
                            .step_by(3)
                            .chain([arg as usize % fast_ids.len()])
                            .collect();
                        let n = fast.bulk_cancel(picks.iter().map(|&i| fast_ids[i]));
                        let m = picks.iter().filter(|&&i| slow.cancel(slow_ids[i])).count();
                        proptest::prop_assert_eq!(n, m);
                    }
                }
                proptest::prop_assert_eq!(fast.len(), slow.len());
                if arg & 1 == 0 {
                    proptest::prop_assert_eq!(fast.peek_key(), slow.peek_key());
                } else {
                    proptest::prop_assert_eq!(fast.peek_time(), slow.peek_key().map(|(t, _)| t));
                }
            }
            // Drain both queues to the end.
            loop {
                let (f, s) = (fast.pop_with_seq(), slow.pop_with_seq());
                proptest::prop_assert_eq!(&f, &s);
                if f.is_none() {
                    break;
                }
            }
            proptest::prop_assert_eq!(fast.tombstones(), 0);
        }
    }
}
