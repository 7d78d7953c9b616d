//! The serving backbone: `workers` identical event loops, each owning
//! its connections and running their queries inline.
//!
//! [`Server::run`] spawns `workers - 1` loops and runs loop 0 — which
//! also accepts and places new connections — on the calling thread, so
//! serving takes exactly `workers` threads. Each loop owns a warm
//! [`lsdb_core::QueryCtx`] and executes every request on the thread that
//! read it: no request crosses a thread between its read and its reply.
//! Per-query counters fold into both the queried map's
//! [`lsdb_core::SharedStats`] and the catalog-wide aggregate (what the
//! `STATS` op reports), exactly as the in-process parallel driver folds
//! them — totals are independent of connection count, pipelining depth,
//! or batch shape. Shutdown is graceful: a `SHUTDOWN` request (or
//! [`ShutdownHandle::shutdown`]) stops the acceptor, owed replies flush,
//! and every loop exits.

use crate::catalog::Catalog;
use crate::event_loop::{self, Inbox};
use crate::protocol::MAX_REQUEST_FRAME_V2;
use lsdb_core::{LiveIndex, QueryStats, SpatialIndex};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server`]. Construct via [`ServerConfig::builder`]
/// (validated), [`ServerConfig::from_env`] (documented `LSDB_*`
/// variables), or struct-literal update syntax over
/// [`ServerConfig::default`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Serving threads, each one event loop that owns its share of the
    /// connections and executes their queries itself, one query or
    /// batch at a time. New connections go to the loop with the fewest.
    pub workers: usize,
    /// Poll cadence for noticing an out-of-band shutdown on an otherwise
    /// idle server; also the idle-read cadence a v1 client observes.
    /// Keep it small when fast drain matters.
    pub read_timeout: Duration,
    /// How long a peer may refuse to accept a byte of a pending reply
    /// before its connection is dropped (a stalled reader cannot wedge
    /// the server).
    pub write_timeout: Duration,
    /// Largest request frame accepted, in bytes. Batches need room
    /// (default [`MAX_REQUEST_FRAME_V2`]); singleton-only deployments
    /// can pin this down to harden against garbage.
    pub max_request_frame: u32,
    /// Emit a periodic one-line serving summary on stderr (budget
    /// residency, page evictions, reply-cache hits/misses). Off by
    /// default; `serve --verbose` turns it on.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
            max_request_frame: MAX_REQUEST_FRAME_V2,
            verbose: false,
        }
    }
}

impl ServerConfig {
    /// A validated builder over the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Defaults overridden by whichever environment variables parse
    /// cleanly — the one documented place server knobs read the
    /// environment:
    ///
    /// | variable | field | unit |
    /// |---|---|---|
    /// | `LSDB_SERVER_WORKERS` | `workers` | threads |
    /// | `LSDB_THREADS` | `workers` (fallback) | threads |
    /// | `LSDB_SERVER_READ_TIMEOUT_MS` | `read_timeout` | milliseconds |
    /// | `LSDB_SERVER_WRITE_TIMEOUT_MS` | `write_timeout` | milliseconds |
    /// | `LSDB_SERVER_MAX_FRAME` | `max_request_frame` | bytes |
    /// | `LSDB_SERVER_VERBOSE` | `verbose` | `1`/`true` = on |
    ///
    /// `LSDB_THREADS` is shared with the bench crate's `WorkloadConfig`
    /// so one variable sizes both in-process and served parallelism.
    /// Invalid values (unparsable, zero) fall back to the default.
    pub fn from_env() -> ServerConfig {
        fn parse<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok().and_then(|s| s.parse().ok())
        }
        let mut cfg = ServerConfig::default();
        if let Some(w) = parse::<usize>("LSDB_SERVER_WORKERS").or_else(|| parse("LSDB_THREADS")) {
            if w > 0 {
                cfg.workers = w;
            }
        }
        if let Some(ms) = parse::<u64>("LSDB_SERVER_READ_TIMEOUT_MS") {
            if ms > 0 {
                cfg.read_timeout = Duration::from_millis(ms);
            }
        }
        if let Some(ms) = parse::<u64>("LSDB_SERVER_WRITE_TIMEOUT_MS") {
            if ms > 0 {
                cfg.write_timeout = Duration::from_millis(ms);
            }
        }
        if let Some(n) = parse::<u32>("LSDB_SERVER_MAX_FRAME") {
            if n > 0 {
                cfg.max_request_frame = n;
            }
        }
        if let Ok(v) = std::env::var("LSDB_SERVER_VERBOSE") {
            cfg.verbose = v == "1" || v.eq_ignore_ascii_case("true");
        }
        cfg
    }

    /// The invariants [`ServerConfigBuilder::build`] and
    /// [`Server::bind`] enforce.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError("workers must be at least 1"));
        }
        if self.max_request_frame == 0 {
            return Err(ConfigError("max_request_frame must be at least 1 byte"));
        }
        if self.read_timeout.is_zero() {
            return Err(ConfigError("read_timeout must be nonzero"));
        }
        if self.write_timeout.is_zero() {
            return Err(ConfigError("write_timeout must be nonzero"));
        }
        Ok(())
    }
}

/// A rejected [`ServerConfig`] invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for io::Error {
    fn from(e: ConfigError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

/// Builder for [`ServerConfig`]; [`ServerConfigBuilder::build`] rejects
/// nonsense (zero workers, zero frame cap, zero timeouts).
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.config.read_timeout = t;
        self
    }

    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.config.write_timeout = t;
        self
    }

    pub fn max_request_frame(mut self, bytes: u32) -> Self {
        self.config.max_request_frame = bytes;
        self
    }

    pub fn verbose(mut self, on: bool) -> Self {
        self.config.verbose = on;
        self
    }

    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// What a finished server reports: the same aggregates `STATS` serves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Spatial queries answered (service ops excluded; each batch item
    /// counts as one query).
    pub queries: u64,
    /// Summed per-query counters — a plain sum of [`lsdb_core::QueryCtx`]
    /// snapshots, so identical to what a sequential in-process run would
    /// total.
    pub totals: QueryStats,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// Flips the server's drain flag from outside the wire protocol (e.g. an
/// embedding process that wants to stop serving without a client).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    catalog: Catalog,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port), serving an
    /// already-built index with a *volatile* op log: `INSERT`/`DELETE`
    /// work but persist nothing. Rejects an invalid `config` with
    /// `InvalidInput`. For a durable store use [`Server::bind_live`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: Box<dyn SpatialIndex>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_live(addr, LiveIndex::volatile(index), config)
    }

    /// Bind to `addr` serving a [`LiveIndex`] — typically one recovered
    /// from a durable op log, so acknowledged mutations survive a crash.
    /// The index becomes map `0` ("default") of a one-map catalog, so
    /// every protocol version behaves exactly as the single-map server
    /// did.
    pub fn bind_live(
        addr: impl ToSocketAddrs,
        index: LiveIndex,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_catalog(addr, Catalog::single(index), config)
    }

    /// Bind to `addr` serving a whole [`Catalog`] of maps: v3 requests
    /// route by map id, v1/v2 requests land on map `0`.
    pub fn bind_catalog(
        addr: impl ToSocketAddrs,
        catalog: Catalog,
        config: ServerConfig,
    ) -> io::Result<Server> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            catalog,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger a drain from outside the protocol.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serve until shutdown, then return the lifetime aggregates. Blocks
    /// the calling thread (which runs loop 0); spawn it on a thread if
    /// the caller must keep running.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            catalog,
            config,
            shutdown,
        } = self;
        let shared = Shared::new(&catalog, &shutdown, &config)?;
        event_loop::serve(listener, &shared)?;
        Ok(ServerReport {
            queries: catalog.aggregate().queries(),
            totals: catalog.aggregate().snapshot(),
            connections: shared.connections.load(Ordering::Relaxed),
        })
    }
}

/// Everything the event loops share for the scope of [`Server::run`].
pub(crate) struct Shared<'a> {
    pub catalog: &'a Catalog,
    pub shutdown: &'a AtomicBool,
    pub config: &'a ServerConfig,
    /// One inbox per event loop, indexed by loop.
    pub loops: Vec<Inbox>,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
}

impl<'a> Shared<'a> {
    pub(crate) fn new(
        catalog: &'a Catalog,
        shutdown: &'a AtomicBool,
        config: &'a ServerConfig,
    ) -> io::Result<Shared<'a>> {
        Ok(Shared {
            catalog,
            shutdown,
            config,
            loops: (0..config.workers)
                .map(|_| Inbox::new())
                .collect::<io::Result<_>>()?,
            connections: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        let cfg = ServerConfig::builder()
            .workers(2)
            .read_timeout(Duration::from_millis(50))
            .max_request_frame(1024)
            .build()
            .unwrap();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.max_request_frame, 1024);

        assert!(ServerConfig::builder().workers(0).build().is_err());
        assert!(ServerConfig::builder()
            .max_request_frame(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .read_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .write_timeout(Duration::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn config_error_converts_to_invalid_input() {
        let e: io::Error = ConfigError("nope").into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn default_config_is_valid() {
        ServerConfig::default().validate().unwrap();
        ServerConfig::from_env().validate().unwrap();
    }
}
