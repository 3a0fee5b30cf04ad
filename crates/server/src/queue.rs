//! A bounded MPMC queue with explicit overflow — the server's
//! backpressure primitive.
//!
//! The event loop [`BoundedQueue::try_push`]es parsed requests; handler
//! threads block in [`BoundedQueue::pop`]. `try_push` never blocks:
//! when the queue is full the caller gets the item back and answers 429,
//! which is the whole point — under overload the server says "no"
//! immediately instead of buffering unbounded work it cannot finish.
//!
//! [`BoundedQueue::close`] starts the drain: pushes stop being accepted,
//! `pop` keeps returning queued items until empty, then returns `None` to
//! every handler — graceful shutdown finishes in-flight work by
//! construction.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A capacity-bounded, close-aware MPMC queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (≥ 1 is enforced: a
    /// zero-capacity queue would reject everything).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; metrics only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. `Err(item)` means full or closed — the
    /// caller gets the item back and must shed it (429) rather than wait.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        if g.closed || g.items.len() >= self.capacity {
            return Err(item);
        }
        g.items.push_back(item);
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returns it) or the queue is
    /// closed *and* drained (returns `None`).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.nonempty.wait(g).expect("queue poisoned");
        }
    }

    /// Closes the queue: future pushes fail, and once the backlog drains
    /// every blocked and future `pop` returns `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_overflow() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third push must overflow");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "pop frees a slot");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_releases_workers() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(1), "backlog still served after close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);

        // A worker blocked in pop() wakes up on close.
        let q2 = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(4));
        let total = 200;
        let consumed = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        consumed.lock().unwrap().push(v);
                    }
                });
            }
            s.spawn(|| {
                let mut pushed = 0;
                while pushed < total {
                    if q.try_push(pushed).is_ok() {
                        pushed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                q.close();
            });
        });
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert!(!q.is_empty());
    }
}
