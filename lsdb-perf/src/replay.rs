//! The in-process reference: every request the load generator sent is
//! executed again, in the same order, against an identically built
//! stack, and each wire reply must equal the reference reply — result
//! ids, walk, mutation ids and LSNs, and every per-query `QueryStats`
//! counter.
//!
//! The replay doubles as the per-layer probe of the engine and the live
//! layer: it times each query (`lsdb_core` traversal, scan kernels,
//! segment table and pool) and each mutation (`LiveIndex` write lock,
//! WAL group commit and checkpoint) from outside, through public APIs.

use crate::drive::Record;
use crate::setup::Stack;
use lsdb_core::{queries, LiveIndex, QueryCtx, QueryStats};
use lsdb_server::{decode_request, ErrorCode, Reply, Request};
use std::time::Instant;

/// One timed interval: nanoseconds from the run's epoch to its start,
/// and its length.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub start: u64,
    pub ns: u64,
}

impl Span {
    fn keep_faster(&mut self, other: Span) {
        if other.ns < self.ns {
            *self = other;
        }
    }
}

/// What the reference measured for one record.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// The in-process execution: the fastest of two runs for queries
    /// when timing (more for a traced read, see [`RETIMES`]), the one
    /// run for mutations.
    pub exec: Span,
    /// The server-side decode and encode of a traced request.
    pub decode: Span,
    pub encode: Span,
    /// Redo-log bytes the mutation appended (inserts and deletes).
    pub wal_bytes: u64,
    /// Whether the wire reply equalled the reference reply.
    pub ok: bool,
}

/// Execute `req` against `live` exactly as the server's executor does:
/// a freshly reset context per query, mutations through the live index.
pub fn execute(live: &LiveIndex, req: &Request, ctx: &mut QueryCtx) -> Reply {
    match *req {
        Request::Insert(seg) => {
            return match live.insert(seg) {
                Ok((id, lsn)) => Reply::Inserted { id, lsn: lsn.0 },
                Err(e) => internal("insert", e),
            }
        }
        Request::Delete { id } => {
            return match live.remove(id) {
                Ok((removed, lsn)) => Reply::Deleted {
                    removed,
                    lsn: lsn.0,
                },
                Err(e) => internal("delete", e),
            }
        }
        Request::Flush => {
            return match live.flush() {
                Ok(lsn) => Reply::Flushed { lsn: lsn.0 },
                Err(e) => internal("flush", e),
            }
        }
        _ => {}
    }
    live.with_read(|index| {
        ctx.reset();
        match *req {
            Request::Incident(p) => Reply::Segs {
                ids: index.find_incident(p, ctx),
                stats: ctx.stats(),
            },
            Request::Second { id, at } => {
                if id.index() >= index.len() {
                    return Reply::Error {
                        code: ErrorCode::BadArgument,
                        message: format!(
                            "segment id {} out of range (map has {} segments)",
                            id.0,
                            index.len()
                        ),
                    };
                }
                Reply::Segs {
                    ids: queries::second_endpoint(index, id, at, ctx),
                    stats: ctx.stats(),
                }
            }
            Request::Nearest(p) => Reply::Nearest {
                id: index.nearest(p, ctx),
                stats: ctx.stats(),
            },
            Request::Window(w) => Reply::Segs {
                ids: index.window(w, ctx),
                stats: ctx.stats(),
            },
            Request::Polygon { at, max_steps } => {
                let walk = queries::enclosing_polygon(index, at, max_steps as usize, ctx);
                Reply::Polygon {
                    walk: walk.map(|w| (w.boundary, w.closed)),
                    stats: ctx.stats(),
                }
            }
            ref other => Reply::Error {
                code: ErrorCode::Malformed,
                message: format!("the benchmark never sends {other:?}"),
            },
        }
    })
}

fn internal(what: &str, e: std::io::Error) -> Reply {
    Reply::Error {
        code: ErrorCode::Internal,
        message: format!("{what} not applied: {e}"),
    }
}

/// The checker. `inject` names one record (by position) whose expected
/// reply is deliberately altered before comparison — how the tests show
/// that the gate catches a wrong answer.
pub struct Gate {
    pub inject: Option<usize>,
}

impl Gate {
    /// Whether the wire reply of record `pos` equals `expected`.
    pub fn check(&self, pos: usize, rec: &Record, mut expected: Reply) -> bool {
        if self.inject == Some(pos) {
            corrupt(&mut expected);
        }
        // An error frame is a failure even when the reference agrees.
        let ok = !matches!(expected, Reply::Error { .. })
            && matches!(&rec.reply, Ok(got) if *got == expected);
        if !ok {
            eprintln!(
                "mismatch at request {pos} ({:?} on map {}): wire {:?}, reference {:?}",
                rec.op.req, rec.op.map, rec.reply, expected
            );
        }
        ok
    }
}

/// Change one counter (or the LSN) of a reply, as a wrong reference
/// answer would.
fn corrupt(reply: &mut Reply) {
    match reply {
        Reply::Segs { stats, .. } | Reply::Nearest { stats, .. } | Reply::Polygon { stats, .. } => {
            stats.seg_comps += 1
        }
        Reply::Inserted { lsn, .. } | Reply::Deleted { lsn, .. } | Reply::Flushed { lsn } => {
            *lsn += 1
        }
        _ => {}
    }
}

/// Replay `records` against `stack`. The reads before the first
/// mutation all see the built state, so they are split across `threads`;
/// the rest run in record order on one thread. With `timing`, each query
/// runs a second time and the faster run is kept, a traced request's
/// server-side codec work is timed, and each mutation's redo-log growth
/// is measured.
pub fn replay(
    stack: &Stack,
    records: &[Record],
    threads: usize,
    timing: bool,
    epoch: Instant,
    gate: &Gate,
) -> Vec<Measured> {
    let split = records
        .iter()
        .position(|r| r.op.is_write())
        .unwrap_or(records.len());
    let chunk = split.div_ceil(threads.max(1)).max(1);
    let replay_range = |from: usize, part: &[Record]| {
        let mut ctx = QueryCtx::new();
        let frozen = from < split;
        part.iter()
            .enumerate()
            .map(|(k, rec)| replay_one(stack, from + k, rec, &mut ctx, timing, frozen, epoch, gate))
            .collect::<Vec<_>>()
    };
    let mut out: Vec<Measured> = std::thread::scope(|scope| {
        let parts: Vec<_> = records[..split]
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| scope.spawn(move || replay_range(c * chunk, part)))
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("replay thread panicked"))
            .collect()
    });
    out.extend(replay_range(split, &records[split..]));
    out
}

/// How many more times a traced read of the frozen prefix is executed
/// when its replayed spans outgrow its wire round trip. A host stall
/// during the first two runs inflates the fastest-run estimate; more
/// samples remove that noise without moving a genuine excess.
const RETIMES: usize = 5;

/// Run `f`, returning its result and its span.
fn timed<R>(epoch: Instant, f: impl FnOnce() -> R) -> (R, Span) {
    let t = Instant::now();
    let out = f();
    let span = Span {
        start: t.duration_since(epoch).as_nanos() as u64,
        ns: t.elapsed().as_nanos() as u64,
    };
    (out, span)
}

/// The fastest of three runs of `f`.
fn fastest(epoch: Instant, mut f: impl FnMut()) -> Span {
    let mut best = timed(epoch, &mut f).1;
    for _ in 0..2 {
        best.keep_faster(timed(epoch, &mut f).1);
    }
    best
}

/// The server's share of a traced request's protocol work, re-timed on
/// the bytes that were sent and the reply that came back:
/// `decode_request` and `Reply::encode_v3`.
fn server_codec(rec: &Record, reply: &Reply, epoch: Instant) -> (Span, Span) {
    let bytes = rec.op.req.encode_v3(1, rec.op.map);
    let decode = fastest(epoch, || {
        std::hint::black_box(decode_request(std::hint::black_box(&bytes)).is_ok());
    });
    let encode = fastest(epoch, || {
        std::hint::black_box(reply.encode_v3(1));
    });
    (decode, encode)
}

#[allow(clippy::too_many_arguments)]
fn replay_one(
    stack: &Stack,
    pos: usize,
    rec: &Record,
    ctx: &mut QueryCtx,
    timing: bool,
    frozen: bool,
    epoch: Instant,
    gate: &Gate,
) -> Measured {
    let live = &stack.lives[rec.op.map as usize];
    let traced = timing && rec.spans.is_some();
    if rec.op.is_write() {
        let wal = stack.wal_path(rec.op.map);
        let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
        let before = if timing { wal_len() } else { 0 };
        let (expected, exec) = timed(epoch, || execute(live, &rec.op.req, ctx));
        let grown = matches!(rec.op.req, Request::Insert(_) | Request::Delete { .. });
        let (decode, encode) = if traced {
            server_codec(rec, &expected, epoch)
        } else {
            Default::default()
        };
        return Measured {
            exec,
            decode,
            encode,
            wal_bytes: if timing && grown {
                wal_len().saturating_sub(before)
            } else {
                0
            },
            ok: gate.check(pos, rec, expected),
        };
    }
    let (expected, mut exec) = timed(epoch, || execute(live, &rec.op.req, ctx));
    if timing {
        exec.keep_faster(timed(epoch, || execute(live, &rec.op.req, ctx)).1);
    }
    let (mut decode, mut encode) = (Span::default(), Span::default());
    if let (true, Some(w)) = (traced, rec.spans) {
        (decode, encode) = server_codec(rec, &expected, epoch);
        let roundtrip = w.roundtrip_end - w.encode_end;
        // Re-running a read is only the same work while no mutation has
        // been replayed since the read was served.
        for _ in 0..RETIMES {
            if !frozen || decode.ns + exec.ns + encode.ns <= roundtrip {
                break;
            }
            exec.keep_faster(timed(epoch, || execute(live, &rec.op.req, ctx)).1);
        }
    }
    Measured {
        exec,
        decode,
        encode,
        wal_bytes: 0,
        ok: gate.check(pos, rec, expected),
    }
}

/// Summed paper counters of a set of replies: the fingerprint a seed
/// must reproduce exactly.
pub fn counter_sum<'a>(replies: impl Iterator<Item = &'a Reply>) -> (u64, QueryStats) {
    let mut n = 0;
    let mut sum = QueryStats::default();
    for stats in replies.filter_map(Reply::stats) {
        n += 1;
        sum.add(stats);
    }
    (n, sum)
}
