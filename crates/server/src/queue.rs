//! A bounded MPSC queue with *observable* admission control.
//!
//! The server boundary needs more than a `std::sync::mpsc` channel
//! offers: a non-blocking admission probe (reject-with-typed-error when
//! a tenant's ingest queue is full), a bounded-wait push (slow-consumer
//! throttling with a deadline instead of a wedge), and a depth
//! high-water mark for the `/metrics` endpoint. This queue is a plain `Mutex<VecDeque>` + two condvars —
//! nothing clever, but every property the protocol layer promises
//! (never a silent drop, never an unbounded buffer) is enforced here.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity (and stayed there for the whole
    /// timeout, for the bounded-wait variant). The value comes back to
    /// the caller — rejection is explicit, never a silent drop.
    Full(T),
    /// The consumer side is gone; no further pushes can succeed.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A bounded multi-producer queue (see module docs).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn enqueue(&self, state: &mut State<T>, item: T) {
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        self.not_empty.notify_one();
    }

    /// Enqueues without waiting; `Err(Full)` when at capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        self.enqueue(&mut state, item);
        Ok(())
    }

    /// Enqueues, waiting up to `timeout` for space — the slow-consumer
    /// throttle. `Err(Full)` only after the deadline passed with the
    /// queue still at capacity.
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        // The clock is read only once the queue is found full: a push
        // that finds space costs no `Instant::now()`.
        let mut deadline = None;
        while !state.closed && state.items.len() >= self.capacity {
            let now = Instant::now();
            let Some(left) = deadline
                .get_or_insert(now + timeout)
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(PushError::Full(item));
            };
            let (next, timed_out) = self
                .not_full
                .wait_timeout(state, left)
                .expect("queue poisoned");
            state = next;
            if timed_out.timed_out() && state.items.len() >= self.capacity && !state.closed {
                return Err(PushError::Full(item));
            }
        }
        if state.closed {
            return Err(PushError::Closed(item));
        }
        self.enqueue(&mut state, item);
        Ok(())
    }

    /// Enqueues, waiting indefinitely for space. `Err(Closed)` only if
    /// the queue closes while waiting (or was closed already).
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        while !state.closed && state.items.len() >= self.capacity {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return Err(PushError::Closed(item));
        }
        self.enqueue(&mut state, item);
        Ok(())
    }

    /// Dequeues, blocking while the queue is empty and open. `None`
    /// means closed *and* drained — the consumer's termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when empty right now.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue ever got — the `/metrics` high-water mark.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue poisoned").high_water
    }

    /// Closes the queue: pushes start failing, pops drain what is left.
    /// Already-enqueued items are never discarded.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_rejects_when_full_and_keeps_value() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn push_timeout_waits_for_consumer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.pop()
        });
        q.push_timeout(2, Duration::from_secs(5)).unwrap();
        assert_eq!(popper.join().unwrap(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // And with nobody popping, the deadline fires.
        q.try_push(3).unwrap();
        assert_eq!(
            q.push_timeout(4, Duration::from_millis(10)),
            Err(PushError::Full(4))
        );
    }

    #[test]
    fn close_drains_remaining_then_none() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_popper() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
