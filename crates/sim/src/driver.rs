//! A generic event queue: virtual-time events popped in time order, FIFO
//! among equal times. [`crate::FlowEngine`] schedules its legs on it; the
//! figures' closed loops live in the bench crate's drivers, on top of
//! `FlowEngine`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for a virtual time, carrying an opaque payload.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence (FIFO among equal times).
    pub seq: u64,
    /// Caller payload.
    pub payload: T,
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for ScheduledEvent<T> {}
impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour inside BinaryHeap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of [`ScheduledEvent`]s ordered by time, then insertion order.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop()
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "late");
        q.push(SimTime::from_secs(1), "early-a");
        q.push(SimTime::from_secs(1), "early-b");
        assert_eq!(q.pop().map(|e| e.payload), Some("early-a"));
        assert_eq!(q.pop().map(|e| e.payload), Some("early-b"));
        assert_eq!(q.pop().map(|e| e.payload), Some("late"));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_sees_min() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.len(), 2);
    }
}
