//! Blocking client for the `lsdb` wire protocol.
//!
//! One [`Client`] wraps one TCP connection. [`Client::connect`]
//! negotiates the protocol version with a `HELLO` exchange: against a v2
//! server the client envelopes every request with a correlation id,
//! which unlocks [`Client::pipeline`] (many requests in flight on one
//! connection, replies matched by id) and [`Client::call_batch`] (one
//! `BATCH` frame, Morton-sorted server-side execution). Against an older
//! server — or via [`Client::connect_v1`] — it falls back to plain v1
//! framing and every operation still works, just sequentially.
//!
//! Against a v3 server every frame also carries a map id: the client
//! holds a *current map* ([`Client::set_map`], default `0`), routes each
//! request to it, and exposes the catalog ops ([`Client::open_map`],
//! [`Client::list_maps`], [`Client::close_map`], [`Client::stats_v3`]).
//!
//! Requests are built with the typed [`QueryRequest`] builder; the old
//! per-query method zoo remains as thin deprecated wrappers. Server-side
//! error frames surface as [`std::io::ErrorKind::Other`] errors carrying
//! the structured code and message.

use crate::protocol::{
    decode_reply, push_frame, read_frame, write_frame, BudgetWire, ErrorCode, FrameError,
    FrameEvent, MapInfo, MapStatsWire, Reply, Request, MAX_REPLY_FRAME, PROTOCOL_VERSION,
};
use lsdb_core::{BatchRequest, QueryStats, SegId};
use lsdb_geom::{Point, Rect, Segment};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A server-reported error frame, preserved through [`io::Error`].
#[derive(Clone, Debug)]
pub struct ServerError {
    pub code: ErrorCode,
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// Typed builder for the seven spatial requests — the one front door for
/// constructing [`Request`] values without spelling wire enum variants.
///
/// ```no_run
/// use lsdb_server::QueryRequest;
/// use lsdb_geom::{Point, Rect};
/// # let mut client = lsdb_server::Client::connect("127.0.0.1:4750").unwrap();
/// let reply = client.call(&QueryRequest::window(Rect::new(0, 0, 64, 64)).build())?;
/// let walk = QueryRequest::enclosing_polygon(Point::new(5, 5)).max_steps(500).build();
/// # std::io::Result::Ok(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    request: Request,
}

impl QueryRequest {
    /// Query 1: all segments incident at `p`.
    pub fn incident(p: Point) -> QueryRequest {
        QueryRequest {
            request: Request::Incident(p),
        }
    }

    /// Query 2: segments at the *other* endpoint of `id`, given `at` is
    /// one of its endpoints.
    pub fn second_endpoint(id: SegId, at: Point) -> QueryRequest {
        QueryRequest {
            request: Request::Second { id, at },
        }
    }

    /// Query 3: the nearest segment to `p`.
    pub fn nearest(p: Point) -> QueryRequest {
        QueryRequest {
            request: Request::Nearest(p),
        }
    }

    /// Ranked query 3: the `k` nearest segments, closest first.
    pub fn nearest_k(p: Point, k: u32) -> QueryRequest {
        QueryRequest {
            request: Request::Knn { at: p, k },
        }
    }

    /// Query 5: all segments intersecting `w`.
    pub fn window(w: Rect) -> QueryRequest {
        QueryRequest {
            request: Request::Window(w),
        }
    }

    /// Query 4: the minimal polygon enclosing `p` (default step cap
    /// 10 000; tune with [`QueryRequest::max_steps`]).
    pub fn enclosing_polygon(p: Point) -> QueryRequest {
        QueryRequest {
            request: Request::Polygon {
                at: p,
                max_steps: 10_000,
            },
        }
    }

    /// Cap the polygon boundary walk (no effect on other queries).
    pub fn max_steps(mut self, steps: u32) -> QueryRequest {
        if let Request::Polygon { max_steps, .. } = &mut self.request {
            *max_steps = steps;
        }
        self
    }

    /// The wire request.
    pub fn build(self) -> Request {
        self.request
    }
}

impl From<QueryRequest> for Request {
    fn from(q: QueryRequest) -> Request {
        q.build()
    }
}

/// The full catalog-aware `STATS` answer a v3 server returns: process
/// aggregates, the buffer-budget gauge, and one entry per map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogStats {
    pub queries: u64,
    pub totals: QueryStats,
    pub budget: BudgetWire,
    pub maps: Vec<MapStatsWire>,
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    /// Negotiated envelope version (1, 2 or 3).
    version: u8,
    /// Current map id stamped on every v3 request envelope.
    map: u32,
    next_corr: u32,
}

impl Client {
    /// Connect with default timeouts (10 s read and write) and negotiate
    /// the protocol version (v2 against this crate's server, v1 against
    /// anything older).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with an explicit read/write timeout, negotiating as
    /// [`Client::connect`] does.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let mut client = Client::connect_v1_with_timeout(addr, timeout)?;
        client.negotiate()?;
        Ok(client)
    }

    /// Connect speaking plain v1 frames only, no negotiation — what a
    /// pre-v2 client binary does, kept callable for compatibility
    /// testing and for talking through v1-only middleboxes.
    pub fn connect_v1(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_v1_with_timeout(addr, Duration::from_secs(10))
    }

    /// [`Client::connect_v1`] with an explicit timeout.
    pub fn connect_v1_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            version: 1,
            map: 0,
            next_corr: 0,
        })
    }

    /// `HELLO` exchange: a v2 server answers with the version it will
    /// speak; a v1 server answers the unknown opcode with a structured
    /// `UnknownOp` error, which downgrades this client to v1 silently.
    fn negotiate(&mut self) -> io::Result<()> {
        write_frame(
            &mut self.stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )?;
        match self.read_reply()? {
            (_, Reply::Hello { version }) => {
                self.version = version.clamp(1, PROTOCOL_VERSION);
                Ok(())
            }
            (
                _,
                Reply::Error {
                    code: ErrorCode::UnknownOp,
                    ..
                },
            ) => {
                self.version = 1;
                Ok(())
            }
            (_, Reply::Error { code, message }) => {
                Err(io::Error::other(ServerError { code, message }))
            }
            (_, other) => Err(unexpected(&other)),
        }
    }

    /// Whether this connection negotiated at least the v2 envelope
    /// (pipelining and server-side batching).
    pub fn is_v2(&self) -> bool {
        self.version >= 2
    }

    /// Whether this connection negotiated the v3 envelope (map routing
    /// and catalog ops).
    pub fn is_v3(&self) -> bool {
        self.version >= 3
    }

    /// The negotiated envelope version (1, 2 or 3).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Route every subsequent request to catalog map `map` (v3 only;
    /// ids come from [`Client::open_map`] / [`Client::list_maps`]).
    /// Errors on a pre-v3 connection unless `map` is `0`, the only map
    /// a v1/v2 envelope can address.
    pub fn set_map(&mut self, map: u32) -> io::Result<()> {
        if map != 0 && self.version < 3 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "map routing needs protocol v3; this connection negotiated v{}",
                    self.version
                ),
            ));
        }
        self.map = map;
        Ok(())
    }

    /// The map id current requests are routed to.
    pub fn current_map(&self) -> u32 {
        self.map
    }

    /// Encode `req` in this connection's negotiated envelope, stamping
    /// the current map on v3 frames.
    fn encode_request(&mut self, req: &Request) -> (Option<u32>, Vec<u8>) {
        if self.version >= 2 {
            let corr = self.next_corr;
            self.next_corr = self.next_corr.wrapping_add(1);
            let bytes = if self.version >= 3 {
                req.encode_v3(corr, self.map)
            } else {
                req.encode_v2(corr)
            };
            (Some(corr), bytes)
        } else {
            (None, req.encode())
        }
    }

    fn read_reply(&mut self) -> io::Result<(Option<u32>, Reply)> {
        let payload = match read_frame(&mut self.stream, MAX_REPLY_FRAME) {
            Ok(FrameEvent::Frame(p)) => p,
            Ok(FrameEvent::Eof) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ))
            }
            Ok(FrameEvent::Idle) => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timed out"))
            }
            Err(FrameError::Oversized(n)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oversized reply frame: {n} bytes"),
                ))
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        decode_reply(&payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("undecodable reply: {e}"),
            )
        })
    }

    /// Issue one request and wait for its reply. Error frames are
    /// returned as `Err`, so `Ok` replies are always answers.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let (corr, bytes) = self.encode_request(req);
        write_frame(&mut self.stream, &bytes)?;
        let (got, reply) = self.read_reply()?;
        if corr.is_some() && got != corr {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("correlation mismatch: sent {corr:?}, reply carries {got:?}"),
            ));
        }
        match reply {
            Reply::Error { code, message } => Err(io::Error::other(ServerError { code, message })),
            reply => Ok(reply),
        }
    }

    /// [`Client::call`] routed to map `map` for this one request; the
    /// current map is untouched. v3 only (unless `map` is `0`).
    pub fn call_on(&mut self, map: u32, req: &Request) -> io::Result<Reply> {
        let prev = self.map;
        self.set_map(map)?;
        let result = self.call(req);
        self.map = prev;
        result
    }

    /// Execute a homogeneous batch server-side (one `BATCH` frame,
    /// Morton-sorted execution) and return the per-item replies in
    /// submission order. Against a v1 server the batch is transparently
    /// unrolled into sequential singleton calls — same replies, same
    /// counters, no wire batching.
    ///
    /// Item-level failures (e.g. an out-of-range segment id under v1
    /// unrolling) stay inline as [`Reply::Error`] entries; only
    /// transport and whole-batch failures return `Err`.
    pub fn call_batch(&mut self, batch: &BatchRequest) -> io::Result<Vec<Reply>> {
        if self.version >= 2 {
            match self.call(&Request::Batch(batch.clone()))? {
                Reply::Batch(items) => Ok(items),
                other => Err(unexpected(&other)),
            }
        } else {
            let singles = unroll(batch);
            let mut out = Vec::with_capacity(singles.len());
            for req in &singles {
                out.push(self.call_keeping_errors(req)?);
            }
            Ok(out)
        }
    }

    /// Send every request before reading any reply, then return the
    /// replies in request order (matched by correlation id — the server
    /// may complete them out of order). The window's frames are encoded
    /// into one buffer and written at once. Falls back to sequential
    /// calls on a v1 connection.
    ///
    /// Per-request error frames stay inline as [`Reply::Error`] entries,
    /// so one bad request does not mask the other replies.
    pub fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Reply>> {
        if self.version < 2 {
            return reqs.iter().map(|r| self.call_keeping_errors(r)).collect();
        }
        // The whole window goes out in one write: correlation ids run
        // `base`, `base + 1`, ... in request order.
        let base = self.next_corr;
        let mut window = Vec::new();
        for req in reqs {
            let (_, bytes) = self.encode_request(req);
            push_frame(&mut window, &bytes);
        }
        self.stream.write_all(&window)?;
        let mut out: Vec<Option<Reply>> = (0..reqs.len()).map(|_| None).collect();
        for _ in 0..reqs.len() {
            let (corr, reply) = self.read_reply()?;
            let slot = corr
                .and_then(|c| usize::try_from(c.wrapping_sub(base)).ok())
                .filter(|&i| i < out.len() && out[i].is_none());
            match slot {
                Some(i) => out[i] = Some(reply),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply carries unexpected correlation id {corr:?}"),
                    ))
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect())
    }

    /// [`Client::call`] but keeping server error frames inline as
    /// [`Reply::Error`] (batch/pipeline item semantics).
    fn call_keeping_errors(&mut self, req: &Request) -> io::Result<Reply> {
        match self.call(req) {
            Ok(reply) => Ok(reply),
            Err(e) => match e
                .get_ref()
                .and_then(|inner| inner.downcast_ref::<ServerError>())
            {
                Some(se) => Ok(Reply::Error {
                    code: se.code,
                    message: se.message.clone(),
                }),
                None => Err(e),
            },
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Query 1.
    #[deprecated(note = "use `call(&QueryRequest::incident(p).build())`")]
    pub fn incident(&mut self, p: Point) -> io::Result<(Vec<SegId>, QueryStats)> {
        match self.call(&QueryRequest::incident(p).build())? {
            Reply::Segs { ids, stats } => Ok((ids, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Query 2.
    #[deprecated(note = "use `call(&QueryRequest::second_endpoint(id, at).build())`")]
    pub fn second_endpoint(
        &mut self,
        id: SegId,
        at: Point,
    ) -> io::Result<(Vec<SegId>, QueryStats)> {
        match self.call(&QueryRequest::second_endpoint(id, at).build())? {
            Reply::Segs { ids, stats } => Ok((ids, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Query 3.
    #[deprecated(note = "use `call(&QueryRequest::nearest(p).build())`")]
    pub fn nearest(&mut self, p: Point) -> io::Result<(Option<SegId>, QueryStats)> {
        match self.call(&QueryRequest::nearest(p).build())? {
            Reply::Nearest { id, stats } => Ok((id, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Ranked query 3.
    #[deprecated(note = "use `call(&QueryRequest::nearest_k(p, k).build())`")]
    pub fn nearest_k(&mut self, p: Point, k: u32) -> io::Result<(Vec<SegId>, QueryStats)> {
        match self.call(&QueryRequest::nearest_k(p, k).build())? {
            Reply::Segs { ids, stats } => Ok((ids, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Query 5.
    #[deprecated(note = "use `call(&QueryRequest::window(w).build())`")]
    pub fn window(&mut self, w: Rect) -> io::Result<(Vec<SegId>, QueryStats)> {
        match self.call(&QueryRequest::window(w).build())? {
            Reply::Segs { ids, stats } => Ok((ids, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Query 4: boundary edges in traversal order plus the closed flag.
    #[allow(clippy::type_complexity)]
    #[deprecated(note = "use `call(&QueryRequest::enclosing_polygon(p).max_steps(n).build())`")]
    pub fn enclosing_polygon(
        &mut self,
        p: Point,
        max_steps: u32,
    ) -> io::Result<(Option<(Vec<SegId>, bool)>, QueryStats)> {
        match self.call(
            &QueryRequest::enclosing_polygon(p)
                .max_steps(max_steps)
                .build(),
        )? {
            Reply::Polygon { walk, stats } => Ok((walk, stats)),
            other => Err(unexpected(&other)),
        }
    }

    /// Durably insert a segment into the served index. Returns the id
    /// the segment received and the WAL commit LSN; the server only
    /// acknowledges after the op is durable.
    pub fn insert(&mut self, seg: Segment) -> io::Result<(SegId, u64)> {
        match self.call(&Request::Insert(seg))? {
            Reply::Inserted { id, lsn } => Ok((id, lsn)),
            other => Err(unexpected(&other)),
        }
    }

    /// Durably delete the segment with `id`. Returns whether it was
    /// indexed, plus the WAL commit LSN.
    pub fn delete(&mut self, id: SegId) -> io::Result<(bool, u64)> {
        match self.call(&Request::Delete { id })? {
            Reply::Deleted { removed, lsn } => Ok((removed, lsn)),
            other => Err(unexpected(&other)),
        }
    }

    /// Checkpoint the server's op log (fold the WAL into its base store
    /// and truncate it). Returns the LSN the checkpoint covered.
    pub fn flush(&mut self) -> io::Result<u64> {
        match self.call(&Request::Flush)? {
            Reply::Flushed { lsn } => Ok(lsn),
            other => Err(unexpected(&other)),
        }
    }

    /// Server-wide `(queries served, summed counters)`.
    ///
    /// On a v3 connection the server answers `STATS` with the full
    /// catalog shape; this helper folds it back to the aggregate pair.
    /// Use [`Client::stats_v3`] for the per-map breakdown.
    pub fn stats(&mut self) -> io::Result<(u64, QueryStats)> {
        match self.call(&Request::Stats)? {
            Reply::Stats { queries, totals } => Ok((queries, totals)),
            Reply::StatsV3 {
                queries, totals, ..
            } => Ok((queries, totals)),
            other => Err(unexpected(&other)),
        }
    }

    /// Catalog-aware `STATS`: process aggregates, the buffer-budget
    /// gauge, and per-map query/cache counters. Requires a v3 server.
    pub fn stats_v3(&mut self) -> io::Result<CatalogStats> {
        if self.version < 3 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "catalog stats need protocol v3; this connection negotiated v{}",
                    self.version
                ),
            ));
        }
        match self.call(&Request::Stats)? {
            Reply::StatsV3 {
                queries,
                totals,
                budget,
                maps,
            } => Ok(CatalogStats {
                queries,
                totals,
                budget,
                maps,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Open (or look up) the catalog map named `name`. Returns its map
    /// id — valid for [`Client::set_map`] / [`Client::call_on`] — and
    /// its segment count.
    pub fn open_map(&mut self, name: &str) -> io::Result<(u32, u64)> {
        match self.call(&Request::OpenMap { name: name.into() })? {
            Reply::MapOpened { id, len } => Ok((id, len)),
            other => Err(unexpected(&other)),
        }
    }

    /// Every map in the server's catalog, open or cold.
    pub fn list_maps(&mut self) -> io::Result<Vec<MapInfo>> {
        match self.call(&Request::ListMaps)? {
            Reply::MapList(maps) => Ok(maps),
            other => Err(unexpected(&other)),
        }
    }

    /// Close the named map's store (it reopens lazily on the next query
    /// routed to it). Returns whether it was open; refuses maps the
    /// server cannot rebuild.
    pub fn close_map(&mut self, name: &str) -> io::Result<bool> {
        match self.call(&Request::CloseMap { name: name.into() })? {
            Reply::MapClosed { was_open } => Ok(was_open),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to drain and exit. The server acknowledges with
    /// `BYE` and then closes this connection.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// The singleton requests a batch is defined to equal, in submission
/// order (the v1 fallback executes exactly these).
fn unroll(batch: &BatchRequest) -> Vec<Request> {
    match batch {
        BatchRequest::Incident(v) => v.iter().map(|&p| Request::Incident(p)).collect(),
        BatchRequest::Second(v) => v
            .iter()
            .map(|&(id, at)| Request::Second { id, at })
            .collect(),
        BatchRequest::Nearest(v) => v.iter().map(|&p| Request::Nearest(p)).collect(),
        BatchRequest::Knn(v) => v.iter().map(|&(at, k)| Request::Knn { at, k }).collect(),
        BatchRequest::Window(v) => v.iter().map(|&w| Request::Window(w)).collect(),
        BatchRequest::Polygon { points, max_steps } => points
            .iter()
            .map(|&at| Request::Polygon {
                at,
                max_steps: *max_steps,
            })
            .collect(),
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("reply does not match the request: {reply:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_builds_every_wire_shape() {
        assert_eq!(
            QueryRequest::incident(Point::new(1, 2)).build(),
            Request::Incident(Point::new(1, 2))
        );
        assert_eq!(
            QueryRequest::second_endpoint(SegId(7), Point::new(3, 4)).build(),
            Request::Second {
                id: SegId(7),
                at: Point::new(3, 4)
            }
        );
        assert_eq!(
            QueryRequest::nearest(Point::new(5, 6)).build(),
            Request::Nearest(Point::new(5, 6))
        );
        assert_eq!(
            QueryRequest::nearest_k(Point::new(5, 6), 9).build(),
            Request::Knn {
                at: Point::new(5, 6),
                k: 9
            }
        );
        assert_eq!(
            QueryRequest::window(Rect::new(0, 0, 4, 4)).build(),
            Request::Window(Rect::new(0, 0, 4, 4))
        );
        assert_eq!(
            QueryRequest::enclosing_polygon(Point::new(8, 8))
                .max_steps(77)
                .build(),
            Request::Polygon {
                at: Point::new(8, 8),
                max_steps: 77
            }
        );
        // max_steps on a non-polygon request is inert, not a panic.
        assert_eq!(
            QueryRequest::nearest(Point::new(0, 0)).max_steps(5).build(),
            Request::Nearest(Point::new(0, 0))
        );
        let via_from: Request = QueryRequest::incident(Point::new(1, 1)).into();
        assert_eq!(via_from, Request::Incident(Point::new(1, 1)));
    }

    #[test]
    fn unroll_matches_batch_semantics() {
        let batch = BatchRequest::Polygon {
            points: vec![Point::new(1, 1), Point::new(2, 2)],
            max_steps: 42,
        };
        assert_eq!(
            unroll(&batch),
            vec![
                Request::Polygon {
                    at: Point::new(1, 1),
                    max_steps: 42
                },
                Request::Polygon {
                    at: Point::new(2, 2),
                    max_steps: 42
                },
            ]
        );
        assert_eq!(unroll(&BatchRequest::Window(vec![])).len(), 0);
    }
}
