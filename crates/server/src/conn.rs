//! Per-connection state for the event loop: an incremental frame parser
//! plus buffered, ordered reply delivery.
//!
//! A [`Conn`] owns both directions of one client socket. Inbound bytes
//! accumulate in a [`FrameBuf`] until whole frames can be peeled off;
//! outbound frames accumulate in a write buffer flushed whenever `poll`
//! reports the socket writable. Replies to *v1* frames must leave in
//! arrival order (a v1 client reads them positionally), so each v1 frame
//! is assigned a per-connection sequence number on arrival and its reply
//! parks in a reorder buffer until every earlier v1 reply has been
//! queued. Replies to *v2* frames carry a correlation id and are queued
//! the moment they complete — an inline-answered `PING` can overtake a
//! query read in the same burst.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Incremental length-prefixed frame parser. Bytes go in via
/// [`FrameBuf::extend`]; complete payloads come out of
/// [`FrameBuf::next_frame`]. Consumed bytes are compacted lazily so
/// steady-state parsing does no per-frame reallocation.
#[derive(Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is dead.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count (parsing backlog).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Peel off the next complete frame payload, if one is fully
    /// buffered. `Err(len)` means the peer declared an impossible length
    /// (zero, or beyond `max_len`) — the stream can never be
    /// resynchronized past it.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<Vec<u8>>, u32> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len > max_len {
            return Err(len);
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.start += total;
        Ok(Some(payload))
    }
}

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub rbuf: FrameBuf,
    /// Framed bytes awaiting the socket; `wstart` marks the flushed
    /// prefix (compacted lazily, like `FrameBuf`).
    wbuf: Vec<u8>,
    wstart: usize,
    /// Next sequence number to assign to an arriving v1 frame.
    next_v1_seq: u64,
    /// Sequence number whose reply must be queued next.
    next_v1_flush: u64,
    /// Completed v1 replies waiting for their turn in arrival order.
    v1_parked: BTreeMap<u64, Vec<u8>>,
    /// Peer sent EOF (or an unrecoverable frame): stop reading.
    pub read_closed: bool,
    /// Close the socket once the write buffer drains.
    pub close_after_flush: bool,
    /// Last moment the socket accepted bytes while we had bytes to send
    /// (stall detection against `write_timeout`).
    pub last_write_progress: Instant,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::new(),
            wstart: 0,
            next_v1_seq: 0,
            next_v1_flush: 0,
            v1_parked: BTreeMap::new(),
            read_closed: false,
            close_after_flush: false,
            last_write_progress: Instant::now(),
        }
    }

    /// Assign the next v1 arrival sequence number (v1 frames only — v2
    /// frames are ordered by correlation id, client-side).
    pub fn assign_v1_seq(&mut self) -> u64 {
        let seq = self.next_v1_seq;
        self.next_v1_seq += 1;
        seq
    }

    /// Queue the reply for v1 sequence `seq`, releasing it (and any
    /// parked successors) to the write buffer only in arrival order.
    pub fn queue_v1(&mut self, seq: u64, payload: Vec<u8>) {
        self.v1_parked.insert(seq, payload);
        while let Some(payload) = self.v1_parked.remove(&self.next_v1_flush) {
            self.queue_frame(&payload);
            self.next_v1_flush += 1;
        }
    }

    /// Queue a v2-enveloped reply immediately (completion order).
    pub fn queue_v2(&mut self, payload: Vec<u8>) {
        self.queue_frame(&payload);
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        if self.wbuf.is_empty() {
            self.last_write_progress = Instant::now();
        }
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    pub fn wants_write(&self) -> bool {
        self.wstart < self.wbuf.len()
    }

    /// All owed replies are queued and flushed (parked v1 replies count
    /// as owed).
    pub fn is_idle(&self) -> bool {
        !self.wants_write() && self.v1_parked.is_empty()
    }

    /// Pull whatever the socket has into the parse buffer. Returns
    /// `Ok(true)` if the peer reached EOF.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.rbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Push buffered frames to the socket until it would block. Returns
    /// `true` if any bytes moved (stall-timer reset).
    pub fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.wstart < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.wstart += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wstart == self.wbuf.len() {
            self.wbuf.clear();
            self.wstart = 0;
        } else if self.wstart >= 64 * 1024 {
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
        if progressed {
            self.last_write_progress = Instant::now();
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], &b"defgh"[..], &b"i"[..]] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        // Dribble the bytes in one at a time; frames pop out whole.
        let mut out = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(p) = fb.next_frame(64).unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, vec![b"abc".to_vec(), b"defgh".to_vec(), b"i".to_vec()]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buf_rejects_zero_and_oversized_lengths() {
        let mut fb = FrameBuf::new();
        fb.extend(&0u32.to_le_bytes());
        assert_eq!(fb.next_frame(64), Err(0));

        let mut fb = FrameBuf::new();
        fb.extend(&65u32.to_le_bytes());
        assert_eq!(fb.next_frame(64), Err(65));
    }

    #[test]
    fn frame_buf_compacts_consumed_prefix() {
        let mut fb = FrameBuf::new();
        for _ in 0..2000 {
            let payload = [7u8; 8];
            fb.extend(&(payload.len() as u32).to_le_bytes());
            fb.extend(&payload);
            assert!(fb.next_frame(64).unwrap().is_some());
        }
        // Lazy compaction keeps the dead prefix bounded.
        assert!(fb.buf.len() < 8 * 1024, "buffer grew to {}", fb.buf.len());
    }

    #[test]
    fn v1_replies_release_in_arrival_order() {
        // A connected pair just to own a stream; nothing is written.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(stream);

        let s0 = conn.assign_v1_seq();
        let s1 = conn.assign_v1_seq();
        let s2 = conn.assign_v1_seq();
        conn.queue_v1(s2, vec![2]);
        conn.queue_v1(s0, vec![0]);
        assert_eq!(conn.wbuf, [frame(&[0])].concat(), "seq 1 still gates 2");
        conn.queue_v1(s1, vec![1]);
        assert_eq!(conn.wbuf, [frame(&[0]), frame(&[1]), frame(&[2])].concat());
        assert!(conn.v1_parked.is_empty());
    }

    fn frame(p: &[u8]) -> Vec<u8> {
        let mut f = (p.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(p);
        f
    }
}
