//! Each event loop owns its connections and runs their queries inline.
//! Two consequences are pinned here: a panicking request is contained
//! to an `Internal` reply (its loop and that loop's other connections
//! keep serving), and a slow request holds up only its own loop — a
//! connection placed on another loop is answered meanwhile.

use lsdb_core::{IndexConfig, LiveIndex, PolygonalMap, QueryCtx, SpatialIndex};
use lsdb_geom::Point;
use lsdb_server::{Catalog, Client, ErrorCode, Reply, Request, Server, ServerConfig, ServerError};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn test_map() -> PolygonalMap {
    lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "loops-test",
        lsdb_tiger::CountyClass::Suburban,
        900,
        0x100B,
    ))
}

fn build(map: &PolygonalMap) -> Box<dyn SpatialIndex> {
    Box::new(lsdb_pmr::PmrQuadtree::build(
        map,
        lsdb_pmr::PmrConfig {
            index: IndexConfig::default(),
            ..Default::default()
        },
    ))
}

fn start(catalog: Catalog, workers: usize) -> (SocketAddr, JoinHandle<lsdb_server::ServerReport>) {
    let config = ServerConfig {
        workers,
        read_timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

fn server_code(err: &io::Error) -> Option<ErrorCode> {
    err.get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .map(|se| se.code)
}

fn nearest_in_process(index: &dyn SpatialIndex, p: Point) -> Reply {
    let mut ctx = QueryCtx::new();
    Reply::Nearest {
        id: index.nearest(p, &mut ctx),
        stats: ctx.stats(),
    }
}

#[test]
fn a_panicking_request_answers_internal_and_its_loop_keeps_serving() {
    let map = test_map();
    let reference = build(&map);
    let mut catalog = Catalog::new(0, 4);
    let good = catalog.add_live("good", LiveIndex::volatile(build(&map)));
    catalog.add_map("bad", Box::new(|| panic!("map builder exploded")));
    // One loop: both connections share the thread the panic unwinds on.
    let (addr, handle) = start(catalog, 1);

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.is_v3() && b.is_v3());

    let err = a.open_map("bad").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Internal), "{err}");

    let p = Point::new(4100, 9300);
    let want = nearest_in_process(reference.as_ref(), p);
    assert_eq!(a.call_on(good, &Request::Nearest(p)).unwrap(), want);

    b.ping().unwrap();
    let q = Point::new(12_000, 2_500);
    assert_eq!(
        b.call_on(good, &Request::Nearest(q)).unwrap(),
        nearest_in_process(reference.as_ref(), q)
    );

    // The bad slot's lock is poisoned now; touching it again is one more
    // contained panic, not a dead loop.
    let err = a.open_map("bad").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Internal), "{err}");
    a.ping().unwrap();

    b.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 2, "only the two good queries count");
}

#[test]
fn a_slow_open_on_one_loop_does_not_delay_a_query_on_another() {
    const BUILD: Duration = Duration::from_millis(300);
    let map = Arc::new(test_map());
    let reference = build(&map);
    let started = Arc::new(AtomicBool::new(false));
    let mut catalog = Catalog::new(0, 4);
    let good = catalog.add_live("good", LiveIndex::volatile(build(&map)));
    {
        let (map, started) = (Arc::clone(&map), Arc::clone(&started));
        catalog.add_map(
            "slow",
            Box::new(move || {
                started.store(true, Ordering::SeqCst);
                std::thread::sleep(BUILD);
                Ok(build(&map))
            }),
        );
    }
    let (addr, handle) = start(catalog, 2);

    // Each handshake completes only once its connection is placed, so
    // `a` lands on loop 0 and `b` on the then less loaded loop 1.
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();

    let opener = std::thread::spawn(move || {
        let t = Instant::now();
        a.open_map("slow").unwrap();
        (t.elapsed(), Instant::now(), a)
    });
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let p = Point::new(8000, 8000);
    let reply = b.call_on(good, &Request::Nearest(p)).unwrap();
    let answered = Instant::now();
    assert_eq!(reply, nearest_in_process(reference.as_ref(), p));

    let (took, opened, _a) = opener.join().unwrap();
    assert!(took >= BUILD, "the open really was slow ({took:?})");
    assert!(
        answered < opened,
        "the query on the other loop waited for the build to finish"
    );

    b.shutdown().unwrap();
    handle.join().unwrap();
}
