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
//!
//! # Syscall budget
//!
//! A request with nothing else in flight on its connection costs the
//! server one `poll`, one `read` and one `write`: [`Conn::fill`] stops at
//! the first read that leaves room in its buffer, instead of reading
//! again only to be told `EAGAIN`, and the reply leaves in one `write`.
//! The client side costs one `write` per request frame and two `read`s
//! (header, then payload) per reply. One `write` per frame matters
//! because both ends run with `TCP_NODELAY`: every `write` leaves as its
//! own TCP segment, so a length prefix written apart from its payload
//! costs a second segment and can wake the server on a header it cannot
//! parse yet.

use crate::protocol::push_frame;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Room offered to each socket `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental length-prefixed frame parser. Socket bytes land straight
/// in its storage via [`FrameBuf::read_from`]; complete payloads come out
/// of [`FrameBuf::next_frame`]. The storage is zeroed only when it grows,
/// never per read, and consumed bytes are reclaimed lazily, so
/// steady-state parsing neither copies nor reallocates per read.
#[derive(Default)]
pub(crate) struct FrameBuf {
    /// Initialized storage: `start..end` is unparsed input, `end..` is
    /// room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// One `read` from `r` into the spare room, first making at least
    /// [`READ_CHUNK`] bytes of it. Returns the byte count (`0` is EOF)
    /// and whether the read filled the room, i.e. whether `r` may hold
    /// more.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<(usize, bool)> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.buf.len() - self.end < READ_CHUNK {
            // Reclaim the consumed prefix before growing.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        let room = &mut self.buf[self.end..];
        let n = r.read(room)?;
        let filled = n == room.len();
        self.end += n;
        Ok((n, filled))
    }

    /// Unconsumed byte count (parsing backlog).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Peel off the next complete frame payload, if one is fully
    /// buffered. `Err(len)` means the peer declared an impossible length
    /// (zero, or beyond `max_len`) — the stream can never be
    /// resynchronized past it.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<Vec<u8>>, u32> {
        let avail = &self.buf[self.start..self.end];
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
        push_frame(&mut self.wbuf, payload);
    }

    pub fn wants_write(&self) -> bool {
        self.wstart < self.wbuf.len()
    }

    /// All owed replies are queued and flushed (parked v1 replies count
    /// as owed).
    pub fn is_idle(&self) -> bool {
        !self.wants_write() && self.v1_parked.is_empty()
    }

    /// Pull what the socket has into the parse buffer. Returns `Ok(true)`
    /// if the peer reached EOF.
    ///
    /// A read that does not fill the offered room drained the socket, so
    /// `fill` returns without the extra `read` that would only report
    /// `EAGAIN`. `poll` is level-triggered: bytes that arrive later, and
    /// an EOF behind the data just read, are reported on the next poll.
    pub fn fill(&mut self) -> io::Result<bool> {
        loop {
            match self.rbuf.read_from(&mut self.stream) {
                Ok((0, _)) => return Ok(true),
                Ok((_, true)) => {}
                Ok((_, false)) => return Ok(false),
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
            assert_eq!(fb.read_from(&mut &[b][..]).unwrap(), (1, false));
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
        fb.read_from(&mut &0u32.to_le_bytes()[..]).unwrap();
        assert_eq!(fb.next_frame(64), Err(0));

        let mut fb = FrameBuf::new();
        fb.read_from(&mut &65u32.to_le_bytes()[..]).unwrap();
        assert_eq!(fb.next_frame(64), Err(65));
    }

    #[test]
    fn frame_buf_compacts_consumed_prefix() {
        let mut fb = FrameBuf::new();
        // 12-byte frames arriving in 11-byte reads: almost every read
        // leaves a partial frame behind, so the consumed prefix is never
        // dropped for free and must be reclaimed.
        let mut wire = Vec::new();
        for i in 0..4000u32 {
            wire.extend_from_slice(&8u32.to_le_bytes());
            wire.extend_from_slice(&[i as u8; 8]);
        }
        let mut got = 0u32;
        for piece in wire.chunks(11) {
            fb.read_from(&mut &piece[..]).unwrap();
            while let Some(p) = fb.next_frame(64).unwrap() {
                assert_eq!(p, [got as u8; 8]);
                got += 1;
            }
        }
        assert_eq!((got, fb.pending()), (4000, 0));
        // Reclaiming the dead prefix keeps the storage at one read's room
        // plus a partial frame, not the 48 KB that went through it.
        assert!(
            fb.buf.len() < READ_CHUNK + 12,
            "buffer grew to {}",
            fb.buf.len()
        );
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
