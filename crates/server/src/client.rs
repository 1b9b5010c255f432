//! A small blocking client for the framed protocol — the testkit's
//! served-equivalence leg, the load generator and the protocol tests
//! all speak through it.
//!
//! Output frames (`OUTPUTS`) arrive interleaved with control replies on
//! a subscribed connection, so [`roundtrip`](Client::roundtrip) stashes
//! them into [`outputs`](Client::outputs) while waiting for the actual
//! reply. Callers that pipeline ingests must window their acks (send
//! *k*, then read *k*) — both peers write into finite socket buffers,
//! and a client that never reads can deadlock against a server that
//! never drops.

use crate::protocol::{read_frame, write_frame, FrameError, Request, Response, DEFAULT_MAX_FRAME};
use caesar_events::{Event, OutputRecord};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    /// Output events stashed from `OUTPUTS` frames read while waiting
    /// for control replies (subscribed connections only).
    pub outputs: Vec<Event>,
    /// The interleaved emission/retraction ledger in frame-arrival
    /// order: every `OUTPUTS` event as an [`OutputRecord::Emit`], every
    /// `RETRACT` event as an [`OutputRecord::Retract`]. Empty on strict
    /// tenants (no `RETRACT` frames, and the emits mirror `outputs`).
    pub records: Vec<OutputRecord>,
}

impl Client {
    /// Connects to a server's ingest address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            outputs: Vec::new(),
            records: Vec::new(),
        })
    }

    /// Bounds how long [`recv`](Self::recv) blocks (`None` = forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request frame.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Sends raw bytes as one frame — malformed-input tests.
    pub fn send_raw(&mut self, body: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, body)
    }

    /// Reads the next response frame; `Ok(None)` is a clean close.
    pub fn recv(&mut self) -> Result<Option<Response>, FrameError> {
        match read_frame(&mut self.stream, DEFAULT_MAX_FRAME)? {
            None => Ok(None),
            Some(body) => Response::decode(&body).map(Some),
        }
    }

    /// Reads until a non-output frame arrives, stashing `OUTPUTS` and
    /// `RETRACT` payloads; `Ok(None)` is a clean close.
    pub fn recv_control(&mut self) -> Result<Option<Response>, FrameError> {
        loop {
            match self.recv()? {
                Some(Response::Outputs(events)) => self.stash_outputs(events),
                Some(Response::Retractions(events)) => self.stash_retractions(events),
                other => return Ok(other),
            }
        }
    }

    /// Sends a request and returns its (non-output) reply; a close
    /// while waiting is an error.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, FrameError> {
        self.send(request)?;
        self.recv_control()?
            .ok_or_else(|| FrameError::Malformed("server closed before replying".into()))
    }

    /// Reads frames (stashing outputs) until `SHUTDOWN_OK` (`true`) or
    /// a clean close (`false`) — the tail of a graceful drain.
    pub fn drain_to_shutdown(&mut self) -> Result<bool, FrameError> {
        loop {
            match self.recv()? {
                Some(Response::Outputs(events)) => self.stash_outputs(events),
                Some(Response::Retractions(events)) => self.stash_retractions(events),
                Some(Response::ShutdownOk) => return Ok(true),
                Some(_) => {} // stale acks from pipelined requests
                None => return Ok(false),
            }
        }
    }

    fn stash_outputs(&mut self, events: Vec<Event>) {
        self.records
            .extend(events.iter().cloned().map(OutputRecord::Emit));
        self.outputs.extend(events);
    }

    fn stash_retractions(&mut self, events: Vec<Event>) {
        self.records
            .extend(events.into_iter().map(OutputRecord::Retract));
    }

    /// Takes the stashed outputs, leaving the buffer empty.
    pub fn take_outputs(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.outputs)
    }

    /// Takes the stashed emission/retraction ledger, leaving it empty.
    pub fn take_records(&mut self) -> Vec<OutputRecord> {
        std::mem::take(&mut self.records)
    }
}
