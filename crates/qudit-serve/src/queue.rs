//! Bounded FIFO submission queue.
//!
//! Jobs run in submission order. Under the `ShedOldest` backpressure policy
//! the job shed is the one that has waited longest: it is the closest to
//! its deadline and thus the cheapest to drop, and it is the same front item
//! a worker would pop next.

use std::collections::VecDeque;

/// A capacity-checked FIFO queue. Capacity is enforced by the caller (the
/// engine decides *how* to react to a full queue); the structure itself only
/// reports fullness.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), items: VecDeque::new() }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Appends an item. The caller must have made room first.
    pub fn push(&mut self, item: T) {
        debug_assert!(!self.is_full(), "engine must shed or block before pushing");
        self.items.push_back(item);
    }

    /// Removes and returns the longest-waiting item: the next job to run, or
    /// the one to shed.
    pub fn pop_oldest(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_is_fifo() {
        let mut q = BoundedQueue::new(8);
        q.push("a");
        q.push("b");
        q.push("c");
        assert_eq!(q.pop_oldest(), Some("a"));
        assert_eq!(q.pop_oldest(), Some("b"));
        assert_eq!(q.pop_oldest(), Some("c"));
        assert_eq!(q.pop_oldest(), None);
    }

    #[test]
    fn shed_oldest_takes_the_longest_waiting() {
        let mut q = BoundedQueue::new(8);
        q.push("oldest");
        q.push("newer");
        assert_eq!(q.pop_oldest(), Some("oldest"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_oldest(), Some("newer"));
        assert_eq!(q.pop_oldest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q: BoundedQueue<()> = BoundedQueue::new(0);
        assert!(!q.is_full());
        let mut q = BoundedQueue::new(0);
        q.push(());
        assert!(q.is_full());
    }
}
