//! Tests of the framing contract on both ends of a connection: a frame
//! leaves the sender in one `write` (one TCP segment under
//! `TCP_NODELAY`), the bytes on the wire are exactly `len ‖ payload`,
//! and the server's short-read exit from [`Conn::fill`] loses neither
//! data nor the peer's EOF.

use crate::client::Client;
use crate::conn::Conn;
use crate::protocol::{
    decode_reply, decode_request, push_frame, read_frame, write_frame, FrameEvent, Reply, Request,
    MAX_REPLY_FRAME, MAX_REQUEST_FRAME_V2,
};
use crate::sys::{poll_fds, PollFd, POLLIN};
use crate::{Catalog, Server, ServerConfig, ServerReport};
use lsdb_core::{LiveIndex, QueryCtx, SpatialIndex};
use lsdb_geom::Point;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `Write` sink that records every call, accepting at most
/// `caps[i % caps.len()]` bytes on call `i`.
struct Recording {
    caps: Vec<usize>,
    calls: Vec<Vec<u8>>,
}

impl Recording {
    fn new(caps: &[usize]) -> Recording {
        Recording {
            caps: caps.to_vec(),
            calls: Vec::new(),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        self.calls.concat()
    }
}

impl Write for Recording {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.caps[self.calls.len() % self.caps.len()]);
        self.calls.push(buf[..n].to_vec());
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

#[test]
fn write_frame_is_one_write_when_the_sink_takes_it_whole() {
    for len in [1, 28, 4096, 100_000] {
        let p = payload(len);
        let mut sink = Recording::new(&[usize::MAX]);
        write_frame(&mut sink, &p).unwrap();
        assert_eq!(sink.calls.len(), 1, "{len}-byte payload");
        assert_eq!(sink.calls[0], frame(&p), "{len}-byte payload");
    }
}

#[test]
fn write_frame_completes_through_a_sink_taking_one_to_three_bytes() {
    for len in [1, 2, 5, 28, 1000] {
        let p = payload(len);
        let mut sink = Recording::new(&[1, 3, 2]);
        write_frame(&mut sink, &p).unwrap();
        assert_eq!(sink.bytes(), frame(&p), "{len}-byte payload");
        assert!(sink.calls.iter().all(|c| (1..=3).contains(&c.len())));
    }
}

/// A one-connection stand-in server: answers the `HELLO` with v3, then
/// reads `frames` request frames, keeps their raw bytes, and answers
/// each with a `PONG` carrying its correlation id.
fn recording_server(frames: usize) -> (SocketAddr, JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let next = |stream: &mut TcpStream| match read_frame(stream, MAX_REQUEST_FRAME_V2) {
            Ok(FrameEvent::Frame(p)) => p,
            _ => panic!("request frame expected"),
        };
        let hello = next(&mut stream);
        assert!(matches!(
            decode_request(&hello).unwrap().request,
            Request::Hello { .. }
        ));
        write_frame(&mut stream, &Reply::Hello { version: 3 }.encode()).unwrap();
        let mut wire = Vec::new();
        for _ in 0..frames {
            let p = next(&mut stream);
            let corr = decode_request(&p).unwrap().corr.expect("enveloped");
            push_frame(&mut wire, &p);
            write_frame(&mut stream, &Reply::Pong.encode_v3(corr)).unwrap();
        }
        wire
    });
    (addr, handle)
}

#[test]
fn pipeline_sends_the_concatenated_request_frames() {
    let reqs: Vec<Request> = (0..300)
        .map(|i| match i % 3 {
            0 => Request::Nearest(Point::new(i, 2 * i)),
            1 => Request::Ping,
            _ => Request::Knn {
                at: Point::new(i, 5),
                k: 3,
            },
        })
        .collect();
    let (addr, server) = recording_server(reqs.len());
    let mut client = Client::connect(addr).unwrap();
    assert!(client.is_v3());
    let replies = client.pipeline(&reqs).unwrap();
    assert!(replies.iter().all(|r| *r == Reply::Pong));

    let want: Vec<u8> = reqs
        .iter()
        .enumerate()
        .flat_map(|(i, req)| frame(&req.encode_v3(i as u32, 0)))
        .collect();
    assert_eq!(server.join().unwrap(), want);
}

/// A connected pair: the server side as a non-blocking [`Conn`], the
/// client side as a plain blocking stream.
fn conn_pair() -> (Conn, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    peer.set_nodelay(true).unwrap();
    let (stream, _) = listener.accept().unwrap();
    stream.set_nonblocking(true).unwrap();
    (Conn::new(stream), peer)
}

/// Poll for readability and `fill`, as the event loop does, until
/// `done` holds; returns whether any `fill` reported EOF.
fn fill_until(conn: &mut Conn, done: impl Fn(&Conn, bool) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut eof = false;
    while !done(conn, eof) {
        assert!(Instant::now() < deadline, "condition not reached in 5 s");
        let mut fds = [PollFd::new(conn.stream.as_raw_fd(), POLLIN)];
        poll_fds(&mut fds, 1_000).unwrap();
        eof |= conn.fill().unwrap();
    }
    eof
}

#[test]
fn fill_parses_a_frame_split_across_two_reads() {
    let (mut conn, mut peer) = conn_pair();
    let wire = frame(&payload(40));
    peer.write_all(&wire[..3]).unwrap();
    fill_until(&mut conn, |c, _| c.rbuf.pending() == 3);
    assert_eq!(conn.rbuf.next_frame(64), Ok(None), "only half a header");
    peer.write_all(&wire[3..]).unwrap();
    fill_until(&mut conn, |c, _| c.rbuf.pending() == wire.len());
    assert_eq!(conn.rbuf.next_frame(64), Ok(Some(payload(40))));
    assert_eq!(conn.rbuf.pending(), 0);
}

#[test]
fn fill_still_reports_eof_behind_a_short_read() {
    let (mut conn, mut peer) = conn_pair();
    peer.write_all(&frame(b"last words")).unwrap();
    peer.shutdown(Shutdown::Write).unwrap();
    let eof = fill_until(&mut conn, |_, eof| eof);
    assert_eq!(conn.rbuf.next_frame(64), Ok(Some(b"last words".to_vec())));
    assert!(eof);
}

fn index() -> Box<dyn SpatialIndex> {
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "framing",
        lsdb_tiger::CountyClass::Suburban,
        400,
        0xF4A3,
    ));
    Box::new(lsdb_pmr::PmrQuadtree::build(&map, Default::default()))
}

fn start() -> (SocketAddr, JoinHandle<ServerReport>) {
    let catalog = Catalog::single(LiveIndex::volatile(index()));
    let config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

#[test]
fn a_burst_beyond_one_read_is_answered_in_full() {
    let reference = index();
    let points: Vec<Point> = (0..1500)
        .map(|i| Point::new((i * 97) % 16_000, (i * 61) % 16_000))
        .collect();
    let reqs: Vec<Request> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| match i % 4 {
            0 => Request::Ping,
            _ => Request::Nearest(p),
        })
        .collect();
    let bytes: usize = reqs.iter().map(|r| 4 + r.encode_v3(0, 0).len()).sum();
    assert!(bytes > 16 * 1024, "burst of {bytes} bytes fits one read");

    let (addr, server) = start();
    let mut client = Client::connect(addr).unwrap();
    let replies = client.pipeline(&reqs).unwrap();
    for (i, (reply, &p)) in replies.iter().zip(&points).enumerate() {
        let want = if i % 4 == 0 {
            Reply::Pong
        } else {
            let mut ctx = QueryCtx::new();
            Reply::Nearest {
                id: reference.nearest(p, &mut ctx),
                stats: ctx.stats(),
            }
        };
        assert_eq!(*reply, want, "request {i}");
    }
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn a_peer_that_closes_after_its_frame_is_answered_then_dropped() {
    let (addr, server) = start();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, &Request::Ping.encode()).unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    match read_frame(&mut raw, MAX_REPLY_FRAME).unwrap() {
        FrameEvent::Frame(p) => assert_eq!(decode_reply(&p).unwrap(), (None, Reply::Pong)),
        _ => panic!("the frame sent before the close was not answered"),
    }
    // The server saw the EOF behind the frame and closed its end.
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0);

    Client::connect(addr).unwrap().shutdown().unwrap();
    let report = server.join().unwrap();
    assert_eq!(report.connections, 2);
}
