//! A small bounded MPMC queue — the admission-control primitive behind
//! both the pending-connection queue and the pending-request queue.
//!
//! `std::sync::mpsc` has one consumer per channel, and its unbounded
//! channel is exactly what an admission queue must not be: under overload
//! an unbounded queue converts rejections into silent, ever-growing latency.
//! `Bounded` is a `Mutex<VecDeque>` + `Condvar` with a hard capacity —
//! [`Bounded::push`] never blocks (full means a typed rejection *now*),
//! [`Bounded::pop`] blocks until an item or close, and
//! [`Bounded::close`] wakes every blocked consumer so shutdown never
//! hangs. Consumers drain items that were admitted before the close.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`Bounded::push`] was refused; the item comes back to the caller
/// so it can be rejected with a typed response instead of dropped.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue was closed (server shutting down).
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC queue; see the module docs.
#[derive(Debug)]
pub(crate) struct Bounded<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (`0` refuses everything —
    /// the degenerate config that turns every push into a typed overload).
    pub(crate) fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Non-blocking admit: `Err(Full)` at capacity, `Err(Closed)` after
    /// [`close`](Bounded::close) — the caller gets the item back either way.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means no more items will ever arrive.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Refuses all future pushes and wakes every blocked consumer.
    /// Already-admitted items stay poppable (the drain half of graceful
    /// shutdown).
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo_and_full() {
        let q = Bounded::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let Err(PushError::Full(3)) = q.push(3) else { panic!("expected Full") };
        assert_eq!(q.try_pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let q = Bounded::new(0);
        assert!(matches!(q.push(7), Err(PushError::Full(7))));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_drains() {
        let q = Arc::new(Bounded::new(4));
        q.push("queued").unwrap();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (first, second) = waiter.join().unwrap();
        assert_eq!(first, Some("queued"), "admitted items drain after close");
        assert_eq!(second, None, "closed and drained queue ends the consumer");
        assert!(matches!(q.push("late"), Err(PushError::Closed("late"))));
    }

    #[test]
    fn concurrent_producers_never_exceed_capacity() {
        let q = Arc::new(Bounded::new(8));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut admitted = 0;
                    for i in 0..100 {
                        if q.push(t * 1000 + i).is_ok() {
                            admitted += 1;
                        }
                    }
                    admitted
                })
            })
            .collect();
        let admitted: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
        let mut drained = 0;
        while q.try_pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, admitted);
        assert!(drained <= 8, "at most capacity items can be pending at the end");
    }
}
