//! Differential tests for the SIMD scan kernels: every ISA arm the host
//! can run (scalar always; SSE2/AVX2 where detected) must emit identical
//! survivors, in identical storage order, with identical scan counts —
//! over randomized pages and over the adversarial shapes the vector paths
//! could plausibly get wrong:
//!
//! * ragged tails (`n % 8 != 0`, `n % 4 != 0`, and sub-block pages that
//!   never enter the vector loop at all),
//! * zero-area rectangles (degenerate on one or both axes — axis-aligned
//!   segments produce these constantly),
//! * `i32::MIN` / `i32::MAX` coordinates for the comparison predicates
//!   (closed-bound compares are exact at the extremes) and the documented
//!   `±2^30` domain edge for the distance kernel,
//! * empty nodes and full pages at the paper's 50-entry capacity,
//! * every count from 1 to capacity at 512 B, 1 KB and 2 KB pages, both on
//!   full pages whose unused lane slots hold garbage (the masked tail
//!   loads read it and must discard it) and on buffers sized exactly to
//!   the count (where a tail load would leave the buffer).
//!
//! The scalar arm is itself differential against the naive per-entry
//! `Rect` predicates, so all three arms chain back to the geometry crate's
//! single source of truth.

use lsdb_core::rectnode::{Entry, RectNode, ENTRY, HDR};
use lsdb_core::scan::{
    scan_containing_point_with, scan_intersecting_with, scan_min_dist2_with, EntryScan, Isa,
};
use lsdb_geom::{Point, Rect};
use lsdb_rng::StdRng;

/// Every ISA the host can actually execute. Scalar is always present, so
/// the agreement checks are non-trivial even on a SSE2-only runner.
fn isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.available()).collect()
}

fn page_of(entries: &[Entry]) -> Vec<u8> {
    let mut buf = vec![0u8; HDR + entries.len().max(1) * ENTRY];
    RectNode::init(&mut buf, true);
    for &e in entries {
        RectNode::push(&mut buf, e);
    }
    buf
}

fn e(x0: i32, y0: i32, x1: i32, y1: i32, child: u32) -> Entry {
    Entry {
        rect: Rect::new(x0, y0, x1, y1),
        child,
    }
}

/// Collect (survivor, order) from the intersect kernel on one ISA.
fn run_intersect(isa: Isa, buf: &[u8], w: &Rect) -> (Vec<Entry>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_intersecting_with(isa, &scan, w, |e| got.push(e));
    (got, n)
}

fn run_contain(isa: Isa, buf: &[u8], p: Point) -> (Vec<Entry>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_containing_point_with(isa, &scan, p, |e| got.push(e));
    (got, n)
}

fn run_dist2(isa: Isa, buf: &[u8], p: Point) -> (Vec<(Entry, i64)>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_min_dist2_with(isa, &scan, p, |e, d| got.push((e, d)));
    (got, n)
}

/// Assert all host ISAs agree with the scalar arm on all three kernels,
/// and that the scalar arm agrees with the naive geometry predicates.
fn assert_all_agree(entries: &[Entry], w: &Rect, p: Point, label: &str) {
    let buf = page_of(entries);
    let n = entries.len();

    let naive_w: Vec<Entry> = entries
        .iter()
        .copied()
        .filter(|e| w.intersects(&e.rect))
        .collect();
    let naive_p: Vec<Entry> = entries
        .iter()
        .copied()
        .filter(|e| e.rect.contains_point(p))
        .collect();
    let naive_d: Vec<(Entry, i64)> = entries
        .iter()
        .copied()
        .map(|e| (e, e.rect.dist2_point(p)))
        .collect();

    for isa in isas() {
        let (got, scanned) = run_intersect(isa, &buf, w);
        assert_eq!(scanned, n, "{label}: intersect scan count on {isa:?}");
        assert_eq!(got, naive_w, "{label}: intersect survivors on {isa:?}");

        let (got, scanned) = run_contain(isa, &buf, p);
        assert_eq!(scanned, n, "{label}: contain scan count on {isa:?}");
        assert_eq!(got, naive_p, "{label}: contain survivors on {isa:?}");

        let (got, scanned) = run_dist2(isa, &buf, p);
        assert_eq!(scanned, n, "{label}: dist2 scan count on {isa:?}");
        assert_eq!(got, naive_d, "{label}: dist2 values on {isa:?}");
    }
}

/// `n` random entries with corners in `-span..span` and sides below
/// `side`, degenerate on either axis with high probability.
fn random_entries(rng: &mut StdRng, n: usize, span: i32, side: i32) -> Vec<Entry> {
    (0..n)
        .map(|i| {
            let x0 = rng.gen_range(-span..span);
            let y0 = rng.gen_range(-span..span);
            let w = if rng.gen_bool(0.4) {
                0
            } else {
                rng.gen_range(0..side)
            };
            let h = if rng.gen_bool(0.4) {
                0
            } else {
                rng.gen_range(0..side)
            };
            e(x0, y0, x0 + w, y0 + h, i as u32)
        })
        .collect()
}

#[test]
fn randomized_pages_agree_across_isas() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    // Sizes straddle both vector widths: sub-block, exact blocks for 4 and
    // 8, every tail residue mod 8, and the paper's 50-entry full page.
    for n in [
        0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 23, 31, 32, 33, 50,
    ] {
        for round in 0..8 {
            let entries = random_entries(&mut rng, n, 2000, 300);
            let w = Rect::new(
                rng.gen_range(-2000..0),
                rng.gen_range(-2000..0),
                rng.gen_range(0..2000),
                rng.gen_range(0..2000),
            );
            let p = Point::new(rng.gen_range(-2500..2500), rng.gen_range(-2500..2500));
            assert_all_agree(&entries, &w, p, &format!("n={n} round={round}"));
        }
    }
}

#[test]
fn extreme_coordinates_intersect_and_contain() {
    // Comparison predicates are exact over the whole i32 range: a page
    // mixing world-sized rects with i32::MIN/MAX corners, probed by
    // extreme windows and points. 9 entries = one full AVX2 block + tail.
    let entries = vec![
        e(i32::MIN, i32::MIN, i32::MAX, i32::MAX, 0), // everything
        e(i32::MIN, i32::MIN, i32::MIN, i32::MIN, 1), // min corner point
        e(i32::MAX, i32::MAX, i32::MAX, i32::MAX, 2), // max corner point
        e(i32::MIN, 0, i32::MAX, 0, 3),               // full-width hairline
        e(0, i32::MIN, 0, i32::MAX, 4),               // full-height hairline
        e(-5, -5, 5, 5, 5),
        e(i32::MAX - 10, i32::MIN, i32::MAX, i32::MIN + 10, 6),
        e(0, 0, 0, 0, 7),
        e(i32::MIN + 1, i32::MAX - 1, i32::MIN + 1, i32::MAX, 8),
    ];
    let windows = [
        Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX),
        Rect::new(i32::MIN, i32::MIN, i32::MIN, i32::MIN),
        Rect::new(i32::MAX, i32::MAX, i32::MAX, i32::MAX),
        Rect::new(-1, -1, 1, 1),
        Rect::new(i32::MAX - 5, i32::MIN, i32::MAX, i32::MIN + 5),
    ];
    let points = [
        Point::new(i32::MIN, i32::MIN),
        Point::new(i32::MAX, i32::MAX),
        Point::new(0, 0),
        Point::new(i32::MIN, i32::MAX),
    ];
    // Distance is domain-restricted (differences must fit i32), so pair
    // the extreme windows/points with an in-domain probe for dist2 by
    // checking intersect/contain only here.
    let buf = page_of(&entries);
    for w in &windows {
        let naive: Vec<Entry> = entries
            .iter()
            .copied()
            .filter(|e| w.intersects(&e.rect))
            .collect();
        for isa in isas() {
            let (got, scanned) = run_intersect(isa, &buf, w);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "window {w:?} on {isa:?}");
        }
    }
    for p in points {
        let naive: Vec<Entry> = entries
            .iter()
            .copied()
            .filter(|e| e.rect.contains_point(p))
            .collect();
        for isa in isas() {
            let (got, scanned) = run_contain(isa, &buf, p);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "point {p:?} on {isa:?}");
        }
    }
}

#[test]
fn dist2_agrees_at_the_domain_edge() {
    // The widest domain Rect::dist2_point documents: per-axis differences
    // fit i32. ±2^30 rect corners probed from the opposite corner give
    // differences of 2^31 - 2 — the extreme the SIMD subtract must hit
    // without wrapping.
    const M: i32 = (1 << 30) - 1;
    let entries: Vec<Entry> = vec![
        e(-M, -M, -M, -M, 0),
        e(M, M, M, M, 1),
        e(-M, -M, M, M, 2),
        e(-M, M - 1, -M + 1, M, 3),
        e(0, 0, 0, 0, 4),
        e(-3, -4, 3, 4, 5),
        e(M - 7, -M, M, -M + 7, 6),
        e(-1, -M, 1, M, 7),
        e(5, 5, 6, 6, 8), // tail entry past the 8-wide block
    ];
    let buf = page_of(&entries);
    for p in [
        Point::new(M, M),
        Point::new(-M, -M),
        Point::new(M, -M),
        Point::new(0, 0),
        Point::new(-M, M),
    ] {
        let naive: Vec<(Entry, i64)> = entries
            .iter()
            .copied()
            .map(|e| (e, e.rect.dist2_point(p)))
            .collect();
        for isa in isas() {
            let (got, scanned) = run_dist2(isa, &buf, p);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "probe {p:?} on {isa:?}");
        }
    }
}

/// A full `page_size` page holding `entries`, whose unused lane slots and
/// trailing bytes hold garbage a kernel must never emit: world-covering
/// rectangles (every predicate would keep them) and random bytes.
fn garbage_page(rng: &mut StdRng, page_size: usize, entries: &[Entry]) -> Vec<u8> {
    let mut buf: Vec<u8> = (0..page_size).map(|_| rng.gen_range(0u8..=255)).collect();
    RectNode::init(&mut buf, true);
    let cap = RectNode::capacity(page_size);
    let junk: Vec<Entry> = (0..cap)
        .map(|i| {
            if i % 3 == 2 {
                e(rng.gen_range(-9..9), rng.gen_range(-9..9), 9, 9, 0xDEAD)
            } else {
                e(i32::MIN, i32::MIN, i32::MAX, i32::MAX, 0xBEEF)
            }
        })
        .collect();
    RectNode::write_entries(&mut buf, &junk);
    RectNode::write_entries(&mut buf, entries);
    buf
}

#[test]
fn every_count_agrees_across_isas_with_garbage_and_exact_tails() {
    // Every count from 1 to capacity at three page sizes, each on a full
    // page with garbage past `count` (where the masked full-width tail
    // loads run) and on a buffer sized exactly to `count` (where a tail
    // load may not fit and the scalar tail must take over).
    let mut rng = StdRng::seed_from_u64(0x7A11);
    for page_size in [512usize, 1024, 2048] {
        let cap = RectNode::capacity(page_size);
        for n in 1..=cap {
            let entries = random_entries(&mut rng, n, 500, 200);
            let exact = page_of(&entries);
            let full = garbage_page(&mut rng, page_size, &entries);
            assert_eq!(RectNode::count(&full), n);
            // Probes: a random window, a window covering everything, and
            // points at stored corners (closed bounds) plus a random one.
            let windows = [
                Rect::new(
                    rng.gen_range(-600..0),
                    rng.gen_range(-600..0),
                    rng.gen_range(0..600),
                    rng.gen_range(0..600),
                ),
                Rect::new(-1000, -1000, 1000, 1000),
            ];
            let pick = |rng: &mut StdRng| entries[rng.gen_range(0..n)].rect;
            let points = [
                pick(&mut rng).min,
                pick(&mut rng).max,
                Point::new(rng.gen_range(-600..600), rng.gen_range(-600..600)),
            ];
            for (layout, buf) in [("exact", &exact), ("garbage", &full)] {
                let label = |what: &str, isa: Isa| {
                    format!("{what}: page {page_size} n={n} {layout} on {isa:?}")
                };
                for w in &windows {
                    let naive: Vec<Entry> = entries
                        .iter()
                        .copied()
                        .filter(|e| w.intersects(&e.rect))
                        .collect();
                    for isa in isas() {
                        let got = run_intersect(isa, buf, w);
                        assert_eq!(got, (naive.clone(), n), "{}", label("intersect", isa));
                    }
                }
                for &p in &points {
                    let naive: Vec<Entry> = entries
                        .iter()
                        .copied()
                        .filter(|e| e.rect.contains_point(p))
                        .collect();
                    let naive_d: Vec<(Entry, i64)> = entries
                        .iter()
                        .map(|&e| (e, e.rect.dist2_point(p)))
                        .collect();
                    for isa in isas() {
                        let got = run_contain(isa, buf, p);
                        assert_eq!(got, (naive.clone(), n), "{}", label("contain", isa));
                        let got = run_dist2(isa, buf, p);
                        assert_eq!(got, (naive_d.clone(), n), "{}", label("dist2", isa));
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_single_entry_nodes() {
    let w = Rect::new(-10, -10, 10, 10);
    let p = Point::new(0, 0);
    assert_all_agree(&[], &w, p, "empty");
    assert_all_agree(&[e(0, 0, 0, 0, 0)], &w, p, "single hit");
    assert_all_agree(&[e(100, 100, 200, 200, 0)], &w, p, "single miss");
}

#[test]
fn forced_scalar_override_is_respected_in_child_process() {
    // `LSDB_FORCE_SCALAR` is read once per process, so test it in a
    // child: re-run this test binary with the variable set and a marker
    // test filtered in.
    if std::env::var_os("LSDB_SCALAR_CHILD").is_some() {
        return; // the child runs only the marker test below
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "child_marker_active_isa_is_scalar",
            "--nocapture",
        ])
        .env("LSDB_FORCE_SCALAR", "1")
        .env("LSDB_SCALAR_CHILD", "1")
        .output()
        .expect("spawn child test");
    assert!(
        out.status.success(),
        "forced-scalar child failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn child_marker_active_isa_is_scalar() {
    // Meaningful only when spawned by the test above with the override
    // set; a bare run (no override) just confirms the cache works.
    let isa = lsdb_core::scan::active_isa();
    if std::env::var_os("LSDB_SCALAR_CHILD").is_some() {
        assert_eq!(isa, Isa::Scalar, "LSDB_FORCE_SCALAR=1 must pin scalar");
    }
    assert!(isa.available());
}
