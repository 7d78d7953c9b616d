//! The serving loops: `workers` identical readiness-driven loops, each
//! owning a share of the connections and a warm [`QueryCtx`], each
//! running every request on the thread that read it.
//!
//! Loop 0 also owns the listener. It hands every accepted stream to the
//! loop with the fewest connections, through that loop's [`Inbox`]: the
//! stream goes into the inbox and the loop's self-pipe is nudged so a
//! blocked `poll` picks it up. That is the only cross-thread traffic —
//! once per connection, never per request.
//!
//! Per readiness event a loop reads what the socket has, peels every
//! complete frame, answers the service ops (`PING`, `HELLO`, v1/v2
//! `STATS`, `SHUTDOWN`, decode errors, drain refusals) and flushes them,
//! then executes the read's spatial and admin work in arrival order
//! through [`executor::execute`], flushing each reply as it is ready.
//! There is no hand-off to another thread and no second `poll` before a
//! reply leaves. The cost is isolation: requests pipelined on one
//! connection run one after another, and a long query holds up the
//! other connections of its own loop (only). `BATCH` is the throughput
//! path for a single connection.
//!
//! A lone cheap request therefore costs its loop one `poll`, one `read`
//! and one `write`, and its client one `write` and two `read`s. That
//! budget assumes each request frame arrives as one TCP segment, which
//! [`crate::protocol::write_frame`] guarantees: under `TCP_NODELAY` a
//! frame written in two pieces travels as two segments, and the loop can
//! wake on a length prefix whose payload is still in flight (see
//! [`crate::conn`]).
//!
//! # Drain protocol
//!
//! `SHUTDOWN` (wire) or [`crate::ShutdownHandle`] flips the shared flag;
//! a wire `SHUTDOWN` also nudges every loop, and each loop polls at
//! least every `read_timeout` anyway. A draining loop stops accepting
//! (loop 0 drops the listener, so new connects are refused by the OS),
//! closes idle connections outright, answers any *further* frames with
//! `ShuttingDown`, and exits once each of its connections has flushed
//! its owed replies and closed.

use crate::conn::Conn;
use crate::executor::{self, Job, Token, Work};
use crate::protocol::{decode_request, ErrorCode, Reply, Request, PROTOCOL_VERSION};
use crate::server::Shared;
use crate::sys::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use lsdb_core::QueryCtx;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cadence of the `--verbose` one-line serving summary.
const VERBOSE_PERIOD: Duration = Duration::from_secs(2);

/// The cross-thread face of one loop: where loop 0 drops the streams it
/// assigns to it, and how many connections it owns.
pub(crate) struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
    wake: WakePipe,
    /// Connections assigned to the loop and not yet dropped by it:
    /// incremented at hand-off, decremented when the loop drops one.
    load: AtomicUsize,
}

impl Inbox {
    pub fn new() -> io::Result<Inbox> {
        Ok(Inbox {
            streams: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            load: AtomicUsize::new(0),
        })
    }
}

/// Run every loop — loop 0 on the calling thread, the rest on scoped
/// threads — until all have drained. A loop that fails or panics flips
/// the shutdown flag so the others drain too instead of outliving it.
pub(crate) fn serve(listener: TcpListener, shared: &Shared) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let run = |index: usize, listener: Option<TcpListener>| {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            Loop::new(index, listener, shared).run()
        }));
        if !matches!(result, Ok(Ok(()))) {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        result.unwrap_or_else(|cause| panic::resume_unwind(cause))
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..shared.loops.len())
            .map(|index| scope.spawn(move || run(index, None)))
            .collect();
        let mut result = run(0, Some(listener));
        for other in others {
            let r = other.join().expect("event loop thread panicked");
            result = result.and(r);
        }
        result
    })
}

struct Loop<'a> {
    index: usize,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shared: &'a Shared<'a>,
    ctx: QueryCtx,
    /// Spatial and admin work peeled from one read, run after that
    /// read's inline replies have flushed.
    jobs: Vec<Job>,
    /// The poll set and the connection id behind each of its
    /// connection slots, rebuilt in place every iteration.
    fds: Vec<PollFd>,
    ids: Vec<u64>,
    draining: bool,
}

impl Conn {
    fn raw_fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

impl<'a> Loop<'a> {
    fn new(index: usize, listener: Option<TcpListener>, shared: &'a Shared<'a>) -> Loop<'a> {
        Loop {
            index,
            listener,
            conns: HashMap::new(),
            next_id: 0,
            shared,
            ctx: QueryCtx::new(),
            jobs: Vec::new(),
            fds: Vec::new(),
            ids: Vec::new(),
            draining: false,
        }
    }

    fn inbox(&self) -> &'a Inbox {
        &self.shared.loops[self.index]
    }

    fn run(mut self) -> io::Result<()> {
        let shared = self.shared;
        // Bound the poll so the loop notices an out-of-band ShutdownHandle
        // flip even with no I/O traffic; read_timeout doubles as that
        // cadence exactly as it did for the blocking server's workers.
        let poll_ms = shared.config.read_timeout.as_millis().clamp(10, 1_000) as i32;
        let mut last_summary = Instant::now();

        loop {
            // Periodic serving telemetry, off unless `--verbose`: one
            // stderr line with budget residency, evictions, and cache
            // activity, from the accepting loop only.
            if shared.config.verbose
                && self.listener.is_some()
                && last_summary.elapsed() >= VERBOSE_PERIOD
            {
                last_summary = Instant::now();
                let conns: usize = shared
                    .loops
                    .iter()
                    .map(|l| l.load.load(Ordering::Relaxed))
                    .sum();
                eprintln!("[serve] conns {conns} · {}", shared.catalog.activity_line());
            }
            if shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }

            // fds[0] = wake pipe, fds[1] = listener (while accepting),
            // then one slot per connection (ids carried alongside).
            self.fds.clear();
            self.ids.clear();
            self.fds
                .push(PollFd::new(self.inbox().wake.poll_fd(), POLLIN));
            if let Some(l) = &self.listener {
                self.fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            }
            let conn_base = self.fds.len();
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !conn.read_closed {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                self.ids.push(id);
                self.fds.push(PollFd::new(conn.raw_fd(), events));
            }

            poll_fds(&mut self.fds, poll_ms)?;

            if self.fds[0].readable() {
                self.inbox().wake.drain();
                self.adopt();
            }
            if self.listener.is_some() && self.fds[conn_base - 1].readable() {
                self.accept_ready();
            }
            for slot in 0..self.ids.len() {
                let pfd = self.fds[conn_base + slot];
                if pfd.revents != 0 {
                    self.service(self.ids[slot], pfd.readable(), pfd.writable());
                }
            }
            self.reap_stalled();
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.listener = None; // close: further connects are refused
        self.adopt();
        let before = self.conns.len();
        self.conns.retain(|_, c| !c.is_idle());
        self.release(before - self.conns.len());
    }

    /// Record that this loop dropped `n` of its connections.
    fn release(&self, n: usize) {
        if n > 0 {
            self.inbox().load.fetch_sub(n, Ordering::Relaxed);
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.release(1);
        }
    }

    /// Take ownership of the streams loop 0 handed over. A draining loop
    /// closes them at once, as it closes its own idle connections.
    fn adopt(&mut self) {
        let streams = std::mem::take(
            &mut *self
                .inbox()
                .streams
                .lock()
                .expect("inbox lock: holders only push or take"),
        );
        for stream in streams {
            self.insert(stream);
        }
    }

    fn insert(&mut self, stream: TcpStream) {
        if self.draining {
            self.release(1);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.conns.insert(id, Conn::new(stream));
    }

    /// Accept every pending connection and place each on the loop that
    /// owns the fewest (ties go to the lowest index).
    fn accept_ready(&mut self) {
        let shared = self.shared;
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let (target, inbox) = shared
                        .loops
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.load.load(Ordering::Relaxed))
                        .expect("at least one loop");
                    inbox.load.fetch_add(1, Ordering::Relaxed);
                    if target == self.index {
                        self.insert(stream);
                    } else {
                        inbox
                            .streams
                            .lock()
                            .expect("inbox lock: holders only push or take")
                            .push(stream);
                        inbox.wake.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Listener broke: stop accepting, keep serving.
                    self.listener = None;
                    return;
                }
            }
        }
    }

    /// Handle one connection's readiness: read, answer the inline ops
    /// and flush them, then execute the read's remaining work and flush
    /// each reply. Any transport error drops the connection.
    fn service(&mut self, id: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let (shared, draining) = (self.shared, self.draining);
        let (jobs, ctx) = (&mut self.jobs, &mut self.ctx);
        let mut pump = || -> io::Result<()> {
            if readable && !conn.read_closed {
                conn.read_closed |= conn.fill()?;
                parse_frames(conn, shared, draining, jobs);
                for job in jobs.drain(..) {
                    if conn.wants_write() {
                        conn.flush()?;
                    }
                    let payload = executor::execute(&job, shared, ctx);
                    match job.token {
                        Token::V1 { seq } => conn.queue_v1(seq, payload),
                        Token::V2 { .. } | Token::V3 { .. } => conn.queue_v2(payload),
                    }
                }
            }
            if writable || conn.wants_write() {
                conn.flush()?;
            }
            Ok(())
        };
        let alive = pump().is_ok();
        if !alive || (conn.is_idle() && (conn.close_after_flush || conn.read_closed)) {
            self.drop_conn(id);
        }
    }

    /// Drop connections whose peer has not accepted a byte of a pending
    /// reply for longer than `write_timeout`.
    fn reap_stalled(&mut self) {
        let timeout = self.shared.config.write_timeout;
        let before = self.conns.len();
        self.conns
            .retain(|_, c| !c.wants_write() || c.last_write_progress.elapsed() < timeout);
        self.release(before - self.conns.len());
    }
}

/// Peel every complete frame off `conn`: service ops are answered into
/// its write buffer, everything else lands in `jobs` in arrival order.
fn parse_frames(conn: &mut Conn, shared: &Shared, draining: bool, jobs: &mut Vec<Job>) {
    let max = shared.config.max_request_frame;
    // Nothing past a fatal frame (or an acknowledged BYE) is served;
    // leftover buffered bytes are discarded.
    while !conn.close_after_flush {
        match conn.rbuf.next_frame(max) {
            Ok(Some(payload)) => dispatch(conn, &payload, shared, draining, jobs),
            Ok(None) => return,
            Err(n) => {
                // Unrecoverable framing: answer, stop reading, hang up
                // once the error (and any owed replies queued ahead of
                // it) has flushed.
                let seq = conn.assign_v1_seq();
                let reply = Reply::Error {
                    code: ErrorCode::Oversized,
                    message: format!("frame of {n} bytes exceeds the {max}-byte request limit"),
                };
                conn.queue_v1(seq, reply.encode());
                conn.read_closed = true;
                conn.close_after_flush = true;
                // Best-effort discard of whatever the peer already sent:
                // closing with unread bytes would raise a TCP reset that
                // destroys the error frame in flight.
                let mut scratch = [0u8; 4096];
                let mut budget = 1 << 20;
                while budget > 0 {
                    match io::Read::read(&mut conn.stream, &mut scratch) {
                        Ok(n) if n > 0 => budget -= n.min(budget),
                        _ => break,
                    }
                }
            }
        }
    }
}

/// Decode one frame and either answer it inline (service ops, errors,
/// drain refusals) or queue it as a job.
fn dispatch(conn: &mut Conn, payload: &[u8], shared: &Shared, draining: bool, jobs: &mut Vec<Job>) {
    let frame = match decode_request(payload) {
        Ok(frame) => frame,
        Err(fail) => {
            let reply = Reply::Error {
                code: fail.error.code(),
                message: fail.error.to_string(),
            };
            // A recovered corr means an enveloped frame; v2 and v3 reply
            // envelopes decode interchangeably client-side, so the v2
            // envelope is the safe answer for both.
            let version = if fail.corr.is_some() { 2 } else { 1 };
            queue_reply(conn, fail.corr, version, reply);
            return;
        }
    };
    if draining {
        queue_reply(
            conn,
            frame.corr,
            frame.version,
            Reply::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            },
        );
        conn.close_after_flush = true;
        return;
    }
    match frame.request {
        Request::Ping => queue_reply(conn, frame.corr, frame.version, Reply::Pong),
        Request::Hello { version } => {
            let version = version.clamp(1, PROTOCOL_VERSION);
            queue_reply(conn, frame.corr, frame.version, Reply::Hello { version });
        }
        // v1/v2 STATS keep their aggregate shape and stay inline (two
        // atomic loads); v3 STATS walks the whole catalog and runs as a
        // job like the other admin ops.
        Request::Stats if frame.version < 3 => {
            let aggregate = shared.catalog.aggregate();
            let reply = Reply::Stats {
                queries: aggregate.queries(),
                totals: aggregate.snapshot(),
            };
            queue_reply(conn, frame.corr, frame.version, reply);
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            queue_reply(conn, frame.corr, frame.version, Reply::Bye);
            conn.close_after_flush = true;
            // Every loop observes the flag on its next iteration and
            // drains; the nudge makes that immediate.
            for l in shared.loops.iter() {
                l.wake.wake();
            }
        }
        req => {
            let token = match (frame.version, frame.corr) {
                (3, Some(corr)) => Token::V3 { corr },
                (_, Some(corr)) => Token::V2 { corr },
                _ => Token::V1 {
                    seq: conn.assign_v1_seq(),
                },
            };
            let work = match req {
                Request::Batch(b) => Work::Batch(b),
                Request::OpenMap { .. }
                | Request::ListMaps
                | Request::CloseMap { .. }
                | Request::Stats => Work::Admin(req),
                other => Work::Single(other),
            };
            jobs.push(Job {
                token,
                map: frame.map,
                work,
            });
        }
    }
}

/// Queue `reply` on `conn` in the envelope matching the request that
/// provoked it: enveloped frames echo their correlation id under their
/// own version marker, v1 frames join the arrival-order release queue.
fn queue_reply(conn: &mut Conn, corr: Option<u32>, version: u8, reply: Reply) {
    match corr {
        Some(corr) if version >= 3 => conn.queue_v2(reply.encode_v3(corr)),
        Some(corr) => conn.queue_v2(reply.encode_v2(corr)),
        None => {
            let seq = conn.assign_v1_seq();
            conn.queue_v1(seq, reply.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::client::Client;
    use crate::server::ServerConfig;
    use lsdb_core::LiveIndex;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn loads_follow_connections_and_place_on_the_freed_loop() {
        let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
            "placement",
            lsdb_tiger::CountyClass::Suburban,
            200,
            7,
        ));
        let index = lsdb_pmr::PmrQuadtree::build(&map, Default::default());
        let catalog = Catalog::single(LiveIndex::volatile(Box::new(index)));
        let shutdown = AtomicBool::new(false);
        let config = ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(20),
            ..Default::default()
        };
        let shared = Shared::new(&catalog, &shutdown, &config).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let loads = || -> Vec<usize> {
            shared
                .loops
                .iter()
                .map(|l| l.load.load(Ordering::Relaxed))
                .collect()
        };
        // Hand-off counts are exact at once; drops land when the owning
        // loop sees the EOF, so wait for those.
        let settle = |want: [usize; 2]| -> Result<(), Vec<usize>> {
            let deadline = Instant::now() + Duration::from_secs(5);
            while loads() != want {
                if Instant::now() > deadline {
                    return Err(loads());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(())
        };
        let steps = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(listener, &shared));
            let steps = (|| {
                let a = Client::connect(addr).unwrap();
                settle([1, 0])?;
                let b = Client::connect(addr).unwrap();
                settle([1, 1])?;
                drop(a);
                settle([0, 1])?;
                let c = Client::connect(addr).unwrap();
                settle([1, 1])?; // loop 0 was freed, so `c` went there
                drop((b, c));
                settle([0, 0])
            })();
            // Stop the loops whatever happened, so a failure reports
            // instead of hanging the scope.
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
            steps
        });
        assert_eq!(steps, Ok(()), "loop loads diverged from the connections");
        assert_eq!(shared.connections.load(Ordering::Relaxed), 3);
    }
}
