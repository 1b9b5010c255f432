//! Per-tenant output fan-out and per-connection outbound queues.
//!
//! Every connection owns one bounded outbound queue of pre-encoded
//! frame bodies, drained by that connection's writer thread. Both the
//! reader thread (acks, errors, reports) and the tenant shard workers
//! (derived outputs for subscribers) enqueue here, so responses and
//! output streams serialize naturally per connection.
//!
//! A slow subscriber throttles its producers only up to a configured
//! timeout; past that the subscriber is marked dead and dropped from
//! the hub — one stalled reader must not wedge a tenant's shards (the
//! connection's writer keeps draining and the socket closes, so the
//! client observes a hard disconnect, never silent gaps inside an
//! acknowledged stream).

use crate::protocol::{push_events, OUTPUTS, RETRACT};
use crate::queue::{BoundedQueue, PushError};
use caesar_events::Event;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The outbound half of one client connection: a bounded queue of
/// encoded frame bodies plus a liveness flag.
pub(crate) struct ConnectionOut {
    queue: BoundedQueue<Vec<u8>>,
    dead: AtomicBool,
}

impl ConnectionOut {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            queue: BoundedQueue::new(capacity),
            dead: AtomicBool::new(false),
        }
    }

    /// Enqueues a frame body, waiting for space. Returns `false` once
    /// the connection is closed or dead.
    pub(crate) fn send(&self, body: Vec<u8>) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        self.queue.push(body).is_ok()
    }

    /// Enqueues with a deadline; `false` marks nothing dead (the caller
    /// decides what a timeout means).
    pub(crate) fn send_timeout(&self, body: Vec<u8>, timeout: Duration) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        match self.queue.push_timeout(body, timeout) {
            Ok(()) => true,
            Err(PushError::Full(_) | PushError::Closed(_)) => false,
        }
    }

    /// Next frame body for the writer; `None` = closed and drained.
    pub(crate) fn next(&self) -> Option<Vec<u8>> {
        self.queue.pop()
    }

    /// Closes the queue (writer drains what is left, then exits).
    pub(crate) fn close(&self) {
        self.queue.close();
    }

    /// Marks the connection dead (writer hit a transport error).
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
        self.queue.close();
    }
}

struct Subscriber {
    id: u64,
    out: Arc<ConnectionOut>,
}

/// Fan-out point from a tenant's shard workers to its subscribed
/// connections.
pub(crate) struct OutputHub {
    subscribers: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    publish_timeout: Duration,
    /// `OUTPUTS` + `RETRACT` frames published, and the events in them
    /// (`/metrics`).
    frames: AtomicU64,
    events: AtomicU64,
}

impl OutputHub {
    pub(crate) fn new(publish_timeout: Duration) -> Self {
        Self {
            subscribers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            publish_timeout,
            frames: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    /// `(frames, events)` published so far.
    pub(crate) fn published(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.events.load(Ordering::Relaxed),
        )
    }

    /// Registers a connection; the returned id unsubscribes it.
    pub(crate) fn subscribe(&self, out: Arc<ConnectionOut>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers
            .lock()
            .expect("subscribers poisoned")
            .push(Subscriber { id, out });
        id
    }

    /// Removes one subscription (connection closed or errored).
    pub(crate) fn unsubscribe(&self, id: u64) {
        self.subscribers
            .lock()
            .expect("subscribers poisoned")
            .retain(|s| s.id != id);
    }

    /// Sends one `OUTPUTS` frame to every live subscriber; subscribers
    /// that stay full past the publish timeout are dropped.
    pub(crate) fn publish<'a>(&self, events: impl ExactSizeIterator<Item = &'a Event>) {
        self.publish_frame(OUTPUTS, events);
    }

    /// Sends one `RETRACT` frame to every live subscriber — speculative
    /// tenants cancelling previously published outputs. Travels the
    /// same per-connection FIFO as `publish`, so a subscriber always
    /// sees a retraction after the emission it cancels.
    pub(crate) fn publish_retractions<'a>(&self, events: impl ExactSizeIterator<Item = &'a Event>) {
        self.publish_frame(RETRACT, events);
    }

    /// Encodes the borrowed events once and fans the frame out.
    fn publish_frame<'a>(&self, kind: u8, events: impl ExactSizeIterator<Item = &'a Event>) {
        if events.len() == 0 {
            return;
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.publish_body(push_events(vec![kind], events));
    }

    /// Fans one pre-encoded frame body out to every live subscriber:
    /// cloned for all but the last, which takes the body itself.
    fn publish_body(&self, body: Vec<u8>) {
        let mut subs = self.subscribers.lock().expect("subscribers poisoned");
        let mut left = subs.len();
        let mut body = Some(body);
        subs.retain(|s| {
            left -= 1;
            let frame = if left == 0 { body.take() } else { body.clone() }
                .expect("only the last subscriber takes the body");
            if s.out.send_timeout(frame, self.publish_timeout) {
                true
            } else {
                s.out.mark_dead();
                false
            }
        });
    }
}
