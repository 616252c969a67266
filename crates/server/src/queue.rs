//! Bounded input queue of one session, with an explicit backpressure
//! policy chosen at Configure time.
//!
//! The queue sits between the session's read pump (producer) and its
//! DSP turns (consumer). Both run on the session's shard thread, so it
//! is a plain `VecDeque` with no lock and no waiting: the block policy
//! stops parsing at a full queue and the shard re-parses once a turn
//! frees room, the drop-oldest policy evicts from the front before it
//! pushes to the back, and the stats path reads the depth, a high-water
//! mark and the eviction count.

use std::collections::VecDeque;

/// Outcome of offering an item to the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Push<T> {
    /// Item enqueued; nothing displaced.
    Accepted,
    /// Item enqueued; the returned oldest item was evicted to make
    /// room (drop-oldest policy).
    Displaced(T),
    /// The queue is full (the disconnect policy refuses to drop).
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

/// A bounded FIFO with drop-oldest and reject offer modes,
/// depth/high-water-mark accounting and close semantics (items queued
/// before [`BoundedQueue::close`] stay poppable).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    q: VecDeque<T>,
    cap: usize,
    hwm: usize,
    dropped: u64,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be >= 1");
        BoundedQueue {
            q: VecDeque::with_capacity(cap),
            cap,
            hwm: 0,
            dropped: 0,
            closed: false,
        }
    }

    fn accept(&mut self, item: T) {
        self.q.push_back(item);
        self.hwm = self.hwm.max(self.q.len());
        debug_assert!(self.q.len() <= self.cap);
    }

    /// Drop-oldest offer: evicts the front item when full and counts
    /// the eviction.
    pub fn push_drop_oldest(&mut self, item: T) -> Push<T> {
        if self.closed {
            return Push::Closed(item);
        }
        let displaced = if self.q.len() >= self.cap {
            self.dropped += 1;
            self.q.pop_front()
        } else {
            None
        };
        self.accept(item);
        match displaced {
            Some(old) => Push::Displaced(old),
            None => Push::Accepted,
        }
    }

    /// Rejecting offer: never evicts; a full queue hands the item back
    /// (the disconnect policy turns that into an error frame and closes
    /// the session; the block policy never offers to a full queue).
    pub fn push_or_reject(&mut self, item: T) -> Push<T> {
        if self.closed {
            return Push::Closed(item);
        }
        if self.q.len() >= self.cap {
            return Push::Full(item);
        }
        self.accept(item);
        Push::Accepted
    }

    /// Pops the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// The fixed capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// True when another push would have to evict or be refused.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Closes the queue: future pushes are refused; queued items remain
    /// poppable.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Items evicted by [`BoundedQueue::push_drop_oldest`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_hwm() {
        let mut q = BoundedQueue::new(4);
        for k in 0..4 {
            assert_eq!(q.push_or_reject(k), Push::Accepted);
        }
        assert_eq!(q.high_water_mark(), 4);
        assert!(q.is_full());
        assert_eq!(q.push_or_reject(9), Push::Full(9));
        for k in 0..4 {
            assert_eq!(q.pop(), Some(k));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.high_water_mark(), 4, "hwm sticks");
    }

    #[test]
    fn drop_oldest_evicts_front_and_counts() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.push_drop_oldest(1), Push::Accepted);
        assert_eq!(q.push_drop_oldest(2), Push::Accepted);
        assert_eq!(q.push_drop_oldest(3), Push::Displaced(1));
        assert_eq!(q.push_drop_oldest(4), Push::Displaced(2));
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn close_refuses_pushes_but_keeps_queued_items() {
        let mut q = BoundedQueue::new(4);
        q.push_or_reject(1);
        q.push_or_reject(2);
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push_or_reject(3), Push::Closed(3));
        assert_eq!(q.push_drop_oldest(4), Push::Closed(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays exhausted");
    }
}
