//! The bounded admission queue in front of the oracle.
//!
//! Overload policy is explicit: the queue has a hard capacity, and when it
//! is full the incoming request is refused (first-come first-served).
//! Every shed is counted (`serve.queue.shed`) and every dequeue records
//! the request's queue wait (`serve.queue.wait`).

use std::collections::VecDeque;

struct Enqueued<T> {
    item: T,
    enq_us: u64,
}

/// A bounded FIFO queue that refuses the incoming request when full.
///
/// Time is supplied by the caller as microseconds on any monotonic clock
/// (the frontend uses micros since its epoch), which keeps the queue — and
/// everything built on it — deterministic under test.
pub struct AdmissionQueue<T> {
    capacity: usize,
    q: VecDeque<Enqueued<T>>,
    shed: u64,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `capacity` (≥ 1) requests.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            q: VecDeque::new(),
            shed: 0,
        }
    }

    /// Enqueue `item` at time `now_us`. A full queue refuses it: `Err(item)`.
    pub fn push(&mut self, item: T, now_us: u64) -> Result<(), T> {
        if self.q.len() < self.capacity {
            self.q.push_back(Enqueued {
                item,
                enq_us: now_us,
            });
            odt_obs::gauge("serve.queue.depth").set(self.q.len() as f64);
            return Ok(());
        }
        self.shed += 1;
        odt_obs::counter("serve.queue.shed").inc();
        Err(item)
    }

    /// Dequeue the oldest request and its queue wait in microseconds.
    pub fn pop(&mut self, now_us: u64) -> Option<(T, u64)> {
        let e = self.q.pop_front()?;
        odt_obs::gauge("serve.queue.depth").set(self.q.len() as f64);
        let wait = now_us.saturating_sub(e.enq_us);
        odt_obs::histogram("serve.queue.wait").record_micros(wait);
        Some((e.item, wait))
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total requests shed since construction.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wait_accounting() {
        let mut q = AdmissionQueue::new(4);
        q.push("a", 0).unwrap();
        q.push("b", 10).unwrap();
        let (item, wait) = q.pop(25).unwrap();
        assert_eq!((item, wait), ("a", 25));
        let (item, wait) = q.pop(25).unwrap();
        assert_eq!((item, wait), ("b", 15));
        assert!(q.pop(30).is_none());
    }

    #[test]
    fn reject_newest_sheds_incoming() {
        let mut q = AdmissionQueue::new(2);
        q.push(1, 0).unwrap();
        q.push(2, 0).unwrap();
        assert_eq!(q.push(3, 1), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.pop(2).unwrap().0, 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(1, 0).unwrap();
        assert_eq!(q.push(2, 0), Err(2));
    }

    #[test]
    fn wait_is_saturating_on_clock_skew() {
        let mut q = AdmissionQueue::new(1);
        q.push(1, 100).unwrap();
        // A caller-supplied earlier timestamp must not underflow.
        assert_eq!(q.pop(50).unwrap().1, 0);
    }
}
