//! A bounded, blocking MPMC request queue — the daemon's backpressure point.
//!
//! Sessions push validated requests that need simulation (a request the
//! result store holds in full is answered without queueing, see
//! [`crate::service`]); service workers pop them.  The queue
//! has a fixed capacity: when it is full, [`RequestQueue::submit`] fails
//! *immediately* (the session answers with an `error` frame) rather than
//! blocking the reader thread — a stalled reader could not see the client's
//! `cancel` frames, so backpressure must stay non-blocking on the intake
//! side.  Workers block on [`RequestQueue::pop`] until work or close.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a submit was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after results drain.
    Full,
    /// The daemon is draining; no new work is accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue full; retry after results drain"),
            SubmitError::Closed => write!(f, "daemon is draining; submit rejected"),
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue of pending requests.
pub struct RequestQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> RequestQueue<T> {
    /// A queue admitting at most `capacity` queued (not yet popped) items.
    pub fn new(capacity: usize) -> RequestQueue<T> {
        RequestQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueue `item`, failing fast when full or closed.
    pub fn submit(&self, item: T) -> Result<(), SubmitError> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue the oldest item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.available.wait(&mut state);
        }
    }

    /// Close the queue: pending items still drain, new submits are rejected,
    /// and blocked `pop`s return `None` once empty.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Whether [`RequestQueue::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Whether a [`RequestQueue::submit`] made now would fail with
    /// [`SubmitError::Full`] (a hint: workers may pop in the meantime).
    pub fn is_full(&self) -> bool {
        self.state.lock().items.len() >= self.capacity
    }

    /// Number of queued (not yet popped) items.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_backpressure() {
        let q = RequestQueue::new(2);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        assert_eq!(q.submit(3), Err(SubmitError::Full));
        assert_eq!(q.pop(), Some(1));
        q.submit(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_rejects() {
        let q = RequestQueue::new(4);
        q.submit("pending").unwrap();
        q.close();
        assert_eq!(q.submit("late"), Err(SubmitError::Closed));
        assert_eq!(q.pop(), Some("pending"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_submit_or_close() {
        let q = Arc::new(RequestQueue::new(1));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.submit(7u32).unwrap();
        assert_eq!(popper.join().unwrap(), Some(7));

        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
