//! The load generator: closed-loop connections that send each request
//! through the public protocol codec and record what came back.
//!
//! A request is timed from the start of its encoding to its decoded
//! reply. Inside that interval the generator stamps the encode, the round
//! trip (frame written to frame read) and the decode, which is all a
//! traced request adds: the stamps are taken for every request, and a
//! traced one also keeps them.

use crate::stream::{probe_segment, HotStream, Op, MAPS};
use lsdb_server::protocol::{read_frame, write_frame};
use lsdb_server::{decode_reply, FrameEvent, Reply, Request, MAX_REPLY_FRAME, PROTOCOL_VERSION};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How long one reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Insert/delete pairs in the write probe of a traced read-only run.
pub const PROBE_PAIRS: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before timing: a fixed number of requests, which also feed the
    /// paper-counter fingerprint.
    Warm,
    Timed,
    /// After timing: the write probe or the final deletes.
    Tail,
}

/// The client-side stamps of one traced request, in nanoseconds from
/// the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct WireSpans {
    pub encode_end: u64,
    pub roundtrip_end: u64,
    pub request_bytes: u32,
    pub reply_bytes: u32,
}

/// One request as sent and answered.
#[derive(Debug)]
pub struct Record {
    pub op: Op,
    pub phase: Phase,
    /// The decoded reply, or the transport failure.
    pub reply: Result<Reply, String>,
    /// Nanoseconds from the run's epoch to the start of encoding.
    pub start: u64,
    /// Nanoseconds from the start of encoding to the decoded reply.
    pub latency: u64,
    pub spans: Option<WireSpans>,
}

/// Decides, by send time, whether a timed request is traced. A traced
/// run alternates untraced and traced slices so both modes see the same
/// conditions; an untraced run never traces.
#[derive(Clone, Copy)]
pub struct TracePlan {
    pub slice: Option<Duration>,
}

impl TracePlan {
    /// Whether a timed request sent `since_timed` into timing is traced.
    fn traced(&self, since_timed: Duration) -> bool {
        self.slice
            .is_some_and(|slice| (since_timed.as_nanos() / slice.as_nanos()) % 2 == 1)
    }
}

/// One protocol connection speaking the v3 envelope.
pub struct Wire {
    stream: TcpStream,
    corr: u32,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let mut wire = Wire { stream, corr: 0 };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut wire.stream, &hello.encode())?;
        match wire.read()?.1 {
            Reply::Hello { version } if version == PROTOCOL_VERSION => Ok(wire),
            other => Err(io::Error::other(format!(
                "server did not negotiate protocol v{PROTOCOL_VERSION}: {other:?}"
            ))),
        }
    }

    fn read(&mut self) -> io::Result<(Option<u32>, Reply)> {
        let payload = self.read_payload()?;
        decode_reply(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn read_payload(&mut self) -> io::Result<Vec<u8>> {
        match read_frame(&mut self.stream, MAX_REPLY_FRAME) {
            Ok(FrameEvent::Frame(payload)) => Ok(payload),
            Ok(FrameEvent::Eof) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(FrameEvent::Idle) => Err(io::ErrorKind::TimedOut.into()),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Send `op` and wait for its reply, stamping each stage. Error
    /// frames come back as `Ok(Reply::Error)`: the gate counts them.
    pub fn call(&mut self, op: Op, phase: Phase, epoch: Instant, traced: bool) -> Record {
        let t0 = Instant::now();
        self.corr = self.corr.wrapping_add(1);
        let corr = self.corr;
        let bytes = op.req.encode_v3(corr, op.map);
        let t1 = Instant::now();
        let sent = write_frame(&mut self.stream, &bytes).and_then(|()| self.read_payload());
        let t2 = Instant::now();
        let (reply, reply_bytes) = match sent {
            Ok(payload) => {
                let reply = match decode_reply(&payload) {
                    Ok((Some(got), reply)) if got == corr => Ok(reply),
                    Ok((got, _)) => Err(format!("correlation {got:?}, expected {corr}")),
                    Err(e) => Err(format!("undecodable reply: {e}")),
                };
                (reply, payload.len())
            }
            Err(e) => (Err(e.to_string()), 0),
        };
        let t3 = Instant::now();
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        Record {
            op,
            phase,
            reply,
            start: ns(t0),
            latency: t3.duration_since(t0).as_nanos() as u64,
            spans: traced.then(|| WireSpans {
                encode_end: ns(t1),
                roundtrip_end: ns(t2),
                request_bytes: (bytes.len() + 4) as u32,
                reply_bytes: (reply_bytes + 4) as u32,
            }),
        }
    }
}

/// What a load run produced.
pub struct Driven {
    pub records: Vec<Record>,
    /// Nanoseconds from the epoch to the start and end of timing.
    pub timed_start: u64,
    pub timed_end: u64,
}

/// Called once, on the calling thread, between the warm-up and the start
/// of timing (the benchmark reads the server's counters there).
pub type AtStart<'a> = &'a mut dyn FnMut() -> io::Result<()>;

/// Closed-loop load over `conns` connections drawing request indices
/// from one shared counter: `warm` requests, then requests until
/// `seconds` have passed since the warm-up ended.
#[allow(clippy::too_many_arguments)]
pub fn run_shared(
    addr: SocketAddr,
    conns: usize,
    warm: u64,
    seconds: Duration,
    plan: TracePlan,
    epoch: Instant,
    gen: &(dyn Fn(u64) -> Op + Sync),
    at_start: AtStart,
) -> io::Result<Driven> {
    let next = AtomicU64::new(0);
    let gate = Barrier::new(conns + 1);
    let start = OnceLock::new();
    let (per_conn, timed_start) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let (next, gate, start) = (&next, &gate, &start);
                scope.spawn(move || -> io::Result<Vec<Record>> {
                    // A connection that failed still meets every barrier,
                    // so the others are never left waiting for it.
                    let mut wire = Wire::connect(addr);
                    let mut out = Vec::new();
                    let mut alive = wire.is_ok();
                    gate.wait(); // connected
                    while let (true, Ok(wire)) = (alive, wire.as_mut()) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= warm {
                            break;
                        }
                        let rec = wire.call(gen(i), Phase::Warm, epoch, false);
                        alive = rec.reply.is_ok();
                        out.push(rec);
                    }
                    gate.wait(); // every warm-up request answered
                    gate.wait(); // timing started
                    let t0: Instant = *start.get().expect("timing start is set");
                    while let (true, Ok(wire)) = (alive, wire.as_mut()) {
                        if t0.elapsed() >= seconds {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let traced = plan.traced(t0.elapsed());
                        let rec = wire.call(gen(i), Phase::Timed, epoch, traced);
                        alive = rec.reply.is_ok();
                        out.push(rec);
                    }
                    wire.map(|_| out)
                })
            })
            .collect();
        gate.wait(); // connected
        gate.wait(); // warm-up done
        let hook = at_start();
        let t0 = Instant::now();
        start.set(t0).expect("timing starts once");
        gate.wait();
        let per_conn: Vec<io::Result<Vec<Record>>> = workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect();
        (hook.map(|()| per_conn), t0)
    });
    let per_conn = per_conn?;
    let timed_end = Instant::now();
    let mut records = Vec::new();
    for conn in per_conn {
        records.extend(conn?);
    }
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    Ok(Driven {
        records,
        timed_start: ns(timed_start),
        timed_end: ns(timed_end),
    })
}

/// Sequential load over one connection following the `hot_readwrite`
/// stream: `warm` operations, operations until `seconds` have passed,
/// then the deletes that return every map to its starting size.
pub fn run_hot(
    addr: SocketAddr,
    stream: &mut HotStream,
    warm: u64,
    seconds: Duration,
    plan: TracePlan,
    epoch: Instant,
    at_start: AtStart,
) -> io::Result<Driven> {
    let mut wire = Wire::connect(addr)?;
    let mut records = Vec::new();
    // Sends `op`, tells the stream which id an INSERT received, and
    // reports whether the connection is still usable.
    let mut send = |stream: &mut HotStream, op: Op, phase: Phase, traced: bool| -> bool {
        let is_insert = matches!(op.req, Request::Insert(_));
        let rec = wire.call(op, phase, epoch, traced);
        let ok = rec.reply.is_ok();
        if is_insert {
            match &rec.reply {
                Ok(Reply::Inserted { id, .. }) => stream.inserted(*id),
                _ => stream.insert_failed(),
            }
        }
        records.push(rec);
        ok
    };
    let mut alive = true;
    for _ in 0..warm {
        if !alive {
            break;
        }
        let op = stream.next_op();
        alive = send(stream, op, Phase::Warm, false);
    }
    at_start()?;
    let t0 = Instant::now();
    while alive && t0.elapsed() < seconds {
        let op = stream.next_op();
        alive = send(stream, op, Phase::Timed, plan.traced(t0.elapsed()));
    }
    let t1 = Instant::now();
    for op in stream.drain() {
        if !alive {
            break;
        }
        alive = send(stream, op, Phase::Tail, plan.slice.is_some());
    }
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    Ok(Driven {
        records,
        timed_start: ns(t0),
        timed_end: ns(t1),
    })
}

/// The write probe of a traced read-only run: [`PROBE_PAIRS`] inserts,
/// each followed by the delete of the same segment, round-robin over
/// the maps, then one checkpoint per map. Every map ends where it began.
pub fn write_probe(addr: SocketAddr, seed: u64, epoch: Instant) -> io::Result<Vec<Record>> {
    let mut wire = Wire::connect(addr)?;
    let mut records = Vec::new();
    for k in 0..PROBE_PAIRS {
        let map = (k % MAPS as u64) as u32;
        let insert = Op {
            map,
            req: Request::Insert(probe_segment(seed, k)),
        };
        let rec = wire.call(insert, Phase::Tail, epoch, true);
        let id = match &rec.reply {
            Ok(Reply::Inserted { id, .. }) => Some(*id),
            _ => None,
        };
        records.push(rec);
        let Some(id) = id else { return Ok(records) };
        let delete = Op {
            map,
            req: Request::Delete { id },
        };
        records.push(wire.call(delete, Phase::Tail, epoch, true));
    }
    for map in 0..MAPS {
        let flush = Op {
            map,
            req: Request::Flush,
        };
        records.push(wire.call(flush, Phase::Tail, epoch, true));
    }
    Ok(records)
}
