//! Hot-path scan kernels: zero-copy node views and explicit SIMD
//! geometric predicates over the structure-of-arrays page layout.
//!
//! Every query in this workspace bottoms out in the same inner loop —
//! "walk the entries of one node page, test each bounding rectangle
//! against the query region" — and the paper's wall-clock numbers are
//! dominated by it. This module centralizes that loop in three kernels
//! ([`scan_intersecting`], [`scan_containing_point`], [`scan_min_dist2`])
//! that
//!
//! * read the page bytes **in place** through an [`EntryScan`] view over
//!   the v2 lane layout of [`RectNode`] pages (no intermediate
//!   `Vec<Entry>`), and
//! * evaluate the rectangle predicate with explicit `std::arch` x86-64
//!   intrinsics: 8 entries per step with AVX2, 4 with SSE2, each step one
//!   vector compare per lane followed by **movemask survivor
//!   extraction** — the surviving entries drop out of a single scalar
//!   bit-walk over the mask, in storage order. This is the SIMD-ified
//!   R-tree scanning design: a structure-of-arrays node layout turns each
//!   predicate operand into one contiguous vector load, where the old
//!   interleaved layout needed a gather.
//!
//! The instruction set is picked once per process ([`active_isa`]) via
//! `is_x86_feature_detected!` — eagerly warmed at pool-open time by the
//! index constructors — with the portable scalar blocks kept as the
//! fallback for non-x86-64 targets and for the `LSDB_FORCE_SCALAR=1`
//! override (set it to pin the scalar path regardless of CPU; CI runs the
//! differential suite and the counter guard under both arms). Every ISA
//! arm emits identical survivors in identical order and returns identical
//! scan counts; `tests/kernel_differential.rs` in this crate proves it
//! exhaustively.
//!
//! The kernels are *counter-transparent*: each returns the number of
//! entries scanned, which is exactly the `bbox_comps` charge the caller
//! owes (one bounding-box computation per entry examined, matching what
//! the per-entry loops charged before). Filtering moved from the shared
//! engines into these kernels emits precisely the entries the engines
//! would have kept, so `QueryStats` are byte-identical either way.
//!
//! Two byte-array micro-kernels ride along for the non-rectangle
//! structures: [`scan_ids`] (uniform-grid bucket chains: packed `u32`
//! ids) and [`scan_keys_le`] (PMR quadtree B-tree leaves: sorted `u64`
//! keys) — so no structure crate keeps a private entry-decoding loop.

use crate::rectnode::{Entry, RectNode, HDR};
use lsdb_geom::{Point, Rect};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU8, Ordering};

/// Widest kernel batch: 8 × i32 lanes per AVX2 step (SSE2 runs 4, the
/// scalar fallback blocks by 8 for auto-vectorization). Differential
/// tests straddle this width to cover ragged tails.
pub const LANES: usize = 8;

/// A zero-copy view of one [`RectNode`] page's entry lanes.
///
/// Replaces `RectNode::entries(buf) -> Vec<Entry>` on the query path:
/// the view borrows the pinned page bytes and decodes on the fly, so a
/// node scan touches the allocator not at all. (`entries()` remains for
/// the build/split path, which genuinely wants an owned, reorderable
/// vector.)
#[derive(Clone, Copy)]
pub struct EntryScan<'a> {
    buf: &'a [u8],
    count: usize,
    /// Lane stride in bytes (`4 · capacity`).
    stride: usize,
}

impl<'a> EntryScan<'a> {
    /// View over the occupied entries of a node page.
    ///
    /// Panics if the page is shorter than a node header or its count
    /// exceeds the page's capacity: the kernels decode entries without
    /// per-read bounds checks, and these two facts are what keep every
    /// such read inside `buf`.
    pub fn of_node(buf: &'a [u8]) -> EntryScan<'a> {
        assert!(buf.len() >= HDR, "node page shorter than its header");
        let count = RectNode::count(buf);
        let stride = RectNode::lane_stride(buf.len());
        assert!(4 * count <= stride, "node count exceeds page capacity");
        EntryScan { buf, count, stride }
    }

    /// Number of entries in view.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Read lane `lane` (0 = xlo, 1 = ylo, 2 = xhi, 3 = yhi, 4 = child)
    /// at entry `i`.
    #[inline(always)]
    fn lane(&self, lane: usize, i: usize) -> i32 {
        let at = HDR + lane * self.stride + 4 * i;
        i32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap())
    }

    /// Raw pointer to lane `lane` at entry `i`, for a load of `w` lanes. A
    /// width-`w` load of a rectangle lane from here is in bounds whenever
    /// [`EntryScan::fits`]`(i, w)` holds; the kernels issue no other.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lane_ptr(&self, lane: usize, i: usize, w: usize) -> *const u8 {
        debug_assert!(HDR + lane * self.stride + 4 * (i + w) <= self.buf.len());
        unsafe { self.buf.as_ptr().add(HDR + lane * self.stride + 4 * i) }
    }

    /// Does a width-`w` load at entry `i` of every rectangle lane (0-3)
    /// stay inside the page buffer? Always true for `i + w <= capacity`.
    /// Past the capacity the load runs into the next lane — harmless,
    /// since the kernels mask lanes at or beyond `count` — except in lane
    /// 3 near the end of a buffer sized exactly to its entries, where it
    /// would leave the buffer; the kernels take the scalar tail then.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn fits(&self, i: usize, w: usize) -> bool {
        HDR + 3 * self.stride + 4 * (i + w) <= self.buf.len()
    }

    /// Decode entry `i`. Panics if `i >= self.len()`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Entry {
        assert!(i < self.count, "entry {i} out of {}", self.count);
        // SAFETY: just checked.
        unsafe { self.get_unchecked(i) }
    }

    /// Decode entry `i` with one unaligned load per lane and no bounds
    /// checks.
    ///
    /// # Safety
    ///
    /// `i < self.len()`. [`EntryScan::of_node`] checked that the count
    /// fits the capacity and the capacity's five lanes fit the buffer, so
    /// every read is in bounds.
    #[inline(always)]
    unsafe fn get_unchecked(&self, i: usize) -> Entry {
        debug_assert!(i < self.count);
        let base = self.buf.as_ptr();
        let rd = |lane: usize| {
            let at = HDR + lane * self.stride + 4 * i;
            // SAFETY: at + 4 <= HDR + 5 * stride <= buf.len() (see above).
            i32::from_le(unsafe { std::ptr::read_unaligned(base.add(at) as *const i32) })
        };
        Entry {
            rect: Rect::new(rd(0), rd(1), rd(2), rd(3)),
            child: rd(4) as u32,
        }
    }

    /// Decode entries one by one, in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + 'a {
        let s = *self;
        (0..s.count).map(move |i| s.get(i))
    }
}

// ----------------------------------------------------------------------
// ISA selection
// ----------------------------------------------------------------------

/// Instruction set an entry-scan kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable blocked-scalar fallback (also what LLVM auto-vectorizes).
    Scalar,
    /// 4-wide `std::arch` x86-64 SSE2 intrinsics.
    Sse2,
    /// 8-wide `std::arch` x86-64 AVX2 intrinsics.
    Avx2,
}

impl Isa {
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Sse2, Isa::Avx2];

    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Can this ISA run on the current CPU?
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2 => true, // baseline on x86-64
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Cached process-wide selection: 0 = undecided, else `Isa` + 1.
static ACTIVE_ISA: AtomicU8 = AtomicU8::new(0);

/// The ISA the dispatching kernels use. Decided once per process — the
/// index constructors call this at pool-open time, so by the time a query
/// runs the answer is a cached atomic load. Honors the
/// `LSDB_FORCE_SCALAR=1` environment override (any value other than `0`
/// forces the scalar arm); otherwise picks the widest ISA
/// `is_x86_feature_detected!` reports.
pub fn active_isa() -> Isa {
    match ACTIVE_ISA.load(Ordering::Relaxed) {
        1 => Isa::Scalar,
        2 => Isa::Sse2,
        3 => Isa::Avx2,
        _ => {
            let isa = select_isa();
            let code = match isa {
                Isa::Scalar => 1,
                Isa::Sse2 => 2,
                Isa::Avx2 => 3,
            };
            ACTIVE_ISA.store(code, Ordering::Relaxed);
            isa
        }
    }
}

fn select_isa() -> Isa {
    if std::env::var_os("LSDB_FORCE_SCALAR").is_some_and(|v| v != *"0") {
        return Isa::Scalar;
    }
    if Isa::Avx2.available() {
        Isa::Avx2
    } else if Isa::Sse2.available() {
        Isa::Sse2
    } else {
        Isa::Scalar
    }
}

// ----------------------------------------------------------------------
// Dispatching kernels
// ----------------------------------------------------------------------

/// Emit every entry whose rectangle meets `w` (closed bounds, identical
/// to [`Rect::intersects`]), in storage order. Returns the number of
/// entries scanned — the caller's `bbox_comps` charge.
pub fn scan_intersecting(scan: &EntryScan, w: &Rect, f: impl FnMut(Entry)) -> usize {
    scan_intersecting_with(active_isa(), scan, w, f)
}

/// [`scan_intersecting`] on an explicit ISA (differential tests, bench).
/// The caller must only pass an [`Isa::available`] ISA.
pub fn scan_intersecting_with(
    isa: Isa,
    scan: &EntryScan,
    w: &Rect,
    mut f: impl FnMut(Entry),
) -> usize {
    match isa {
        Isa::Scalar => intersect_scalar(scan, w, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { intersect_sse2(scan, w, &mut f) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { intersect_avx2(scan, w, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => intersect_scalar(scan, w, &mut f),
    }
    scan.len()
}

/// Emit every entry whose rectangle contains `p` (closed bounds,
/// identical to [`Rect::contains_point`]), in storage order. Returns the
/// number of entries scanned.
pub fn scan_containing_point(scan: &EntryScan, p: Point, f: impl FnMut(Entry)) -> usize {
    scan_containing_point_with(active_isa(), scan, p, f)
}

/// [`scan_containing_point`] on an explicit ISA.
pub fn scan_containing_point_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(Entry),
) -> usize {
    match isa {
        Isa::Scalar => contain_scalar(scan, p, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { contain_sse2(scan, p, &mut f) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { contain_avx2(scan, p, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => contain_scalar(scan, p, &mut f),
    }
    scan.len()
}

/// Emit every entry together with the exact squared distance from `p` to
/// its rectangle (identical to [`Rect::dist2_point`]; 0 inside) — the
/// SIMD distance lower bound feeding best-first nearest search. Returns
/// the number of entries scanned.
///
/// Domain: as with [`Rect::dist2_point`] itself, every per-axis
/// difference between `p` and a rectangle edge must fit `i32` (far beyond
/// the 2^14 world coordinates; the differential tests exercise ±2^30).
pub fn scan_min_dist2(scan: &EntryScan, p: Point, f: impl FnMut(Entry, i64)) -> usize {
    scan_min_dist2_with(active_isa(), scan, p, f)
}

/// [`scan_min_dist2`] on an explicit ISA.
pub fn scan_min_dist2_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(Entry, i64),
) -> usize {
    match isa {
        Isa::Scalar => dist2_scalar(scan, p, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { dist2_sse2(scan, p, &mut f) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dist2_avx2(scan, p, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dist2_scalar(scan, p, &mut f),
    }
    scan.len()
}

// ----------------------------------------------------------------------
// Scalar arms (portable fallback; LLVM auto-vectorizes the blocked form)
// ----------------------------------------------------------------------

fn intersect_scalar(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(Entry)) {
    let n = scan.count;
    let mut i = 0;
    let mut keep = [false; LANES];
    while i + LANES <= n {
        for (j, k) in keep.iter_mut().enumerate() {
            // Non-short-circuiting `&`: all four comparisons evaluate
            // unconditionally, which is what lets LLVM fuse the lanes.
            *k = (w.min.x <= scan.lane(2, i + j))
                & (scan.lane(0, i + j) <= w.max.x)
                & (w.min.y <= scan.lane(3, i + j))
                & (scan.lane(1, i + j) <= w.max.y);
        }
        for (j, k) in keep.iter().enumerate() {
            if *k {
                f(scan.get(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        if w.intersects(&e.rect) {
            f(e);
        }
    }
}

fn contain_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry)) {
    let n = scan.count;
    let mut i = 0;
    let mut keep = [false; LANES];
    while i + LANES <= n {
        for (j, k) in keep.iter_mut().enumerate() {
            *k = (scan.lane(0, i + j) <= p.x)
                & (p.x <= scan.lane(2, i + j))
                & (scan.lane(1, i + j) <= p.y)
                & (p.y <= scan.lane(3, i + j));
        }
        for (j, k) in keep.iter().enumerate() {
            if *k {
                f(scan.get(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        if e.rect.contains_point(p) {
            f(e);
        }
    }
}

fn dist2_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry, i64)) {
    let (px, py) = (p.x as i64, p.y as i64);
    let n = scan.count;
    let mut i = 0;
    let mut d2 = [0i64; LANES];
    while i + LANES <= n {
        for (j, d) in d2.iter_mut().enumerate() {
            // Branch-free clamp: max(min - p, 0, p - max) per axis. For a
            // valid rectangle (min <= max) at most one of the outer terms
            // is positive, so this equals the if/else chain in
            // `Rect::dist2_point` exactly.
            let dx = (scan.lane(0, i + j) as i64 - px)
                .max(0)
                .max(px - scan.lane(2, i + j) as i64);
            let dy = (scan.lane(1, i + j) as i64 - py)
                .max(0)
                .max(py - scan.lane(3, i + j) as i64);
            *d = dx * dx + dy * dy;
        }
        for (j, d) in d2.iter().enumerate() {
            f(scan.get(i + j), *d);
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        f(e, e.rect.dist2_point(p));
    }
}

// ----------------------------------------------------------------------
// x86-64 SIMD arms
// ----------------------------------------------------------------------
//
// Shape shared by all six: broadcast the query operand, then per step
// load one vector from each coordinate lane, combine the four per-lane
// compares into a *miss* vector (a rectangle fails a closed-bounds test
// iff some strict `>` holds), movemask it, invert, and walk the set bits
// of the keep mask in ascending order — so survivors are emitted exactly
// in storage order, as the scalar arm does. Survivors decode with one
// unchecked load per lane (`EntryScan::get_unchecked`: every set bit is
// an entry below `count`).
//
// Ragged tails. The compare kernels finish a tail shorter than the
// vector width with one more full-width load whose keep mask is cut to
// the live lanes: the slots past `count` hold stale entries or the next
// lane's bytes, and masking discards them unread by the caller. That
// load is issued only where it stays inside the page buffer
// (`EntryScan::fits`: always when the capacity is at least the vector
// width, as on every page the paper's sizes give, since the load then at
// worst reaches into the child lane); otherwise the per-entry scalar
// test takes the tail. The distance kernels emit every entry and keep the
// scalar tail, so each of their loads has `i + W <= count <= capacity`.

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn load8(scan: &EntryScan, lane: usize, i: usize) -> __m256i {
        unsafe { _mm256_loadu_si256(scan.lane_ptr(lane, i, 8) as *const __m256i) }
    }

    #[inline(always)]
    unsafe fn load4(scan: &EntryScan, lane: usize, i: usize) -> __m128i {
        unsafe { _mm_loadu_si128(scan.lane_ptr(lane, i, 4) as *const __m128i) }
    }

    /// Walk the set bits of `keep` in ascending order.
    #[inline(always)]
    fn each_bit(mut keep: u32, mut f: impl FnMut(usize)) {
        while keep != 0 {
            f(keep.trailing_zeros() as usize);
            keep &= keep - 1;
        }
    }

    /// Kick off the five lane streams before the first block. The SoA
    /// layout spreads one node's entries over five cache-line runs where
    /// the v1 interleaved layout was a single run; on a cold node the
    /// first touch of each lane would otherwise miss serially as the
    /// kernel reaches it (best-first nearest traversals visit mostly
    /// cold nodes, so they feel this the most). Overlapping the misses
    /// costs nothing when the page is already hot.
    #[inline(always)]
    unsafe fn prefetch_lanes(scan: &EntryScan) {
        if scan.count == 0 {
            return; // zero-capacity buffers have no lane bytes to touch
        }
        for lane in 0..5 {
            unsafe { _mm_prefetch::<_MM_HINT_T0>(scan.lane_ptr(lane, 0, 1) as *const i8) };
        }
    }

    /// The live-lane mask of the width-`w` step at entry `i` (of `n`),
    /// or `None` when that step is a ragged tail whose full-width load
    /// would leave the page buffer — the caller finishes it in scalar.
    #[inline(always)]
    fn step_mask(scan: &EntryScan, i: usize, n: usize, w: usize) -> Option<u32> {
        let live = n - i;
        if live >= w {
            Some((1 << w) - 1)
        } else if scan.fits(i, w) {
            Some((1 << live) - 1)
        } else {
            None
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_avx2(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let (wminx, wmaxx) = (_mm256_set1_epi32(w.min.x), _mm256_set1_epi32(w.max.x));
        let (wminy, wmaxy) = (_mm256_set1_epi32(w.min.y), _mm256_set1_epi32(w.max.y));
        let mut i = 0;
        while i < n {
            let Some(live) = step_mask(scan, i, n, 8) else {
                break;
            };
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let miss = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_cmpgt_epi32(wminx, xhi),
                    _mm256_cmpgt_epi32(xlo, wmaxx),
                ),
                _mm256_or_si256(
                    _mm256_cmpgt_epi32(wminy, yhi),
                    _mm256_cmpgt_epi32(ylo, wmaxy),
                ),
            );
            let keep = !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & live;
            // SAFETY: `keep` has bits only in `live`, lanes below `n - i`,
            // so every `i + j < count`.
            each_bit(keep, |j| f(unsafe { scan.get_unchecked(i + j) }));
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            if w.intersects(&e.rect) {
                f(e);
            }
        }
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn intersect_sse2(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let (wminx, wmaxx) = (_mm_set1_epi32(w.min.x), _mm_set1_epi32(w.max.x));
        let (wminy, wmaxy) = (_mm_set1_epi32(w.min.y), _mm_set1_epi32(w.max.y));
        let mut i = 0;
        while i < n {
            let Some(live) = step_mask(scan, i, n, 4) else {
                break;
            };
            let xlo = load4(scan, 0, i);
            let ylo = load4(scan, 1, i);
            let xhi = load4(scan, 2, i);
            let yhi = load4(scan, 3, i);
            let miss = _mm_or_si128(
                _mm_or_si128(_mm_cmpgt_epi32(wminx, xhi), _mm_cmpgt_epi32(xlo, wmaxx)),
                _mm_or_si128(_mm_cmpgt_epi32(wminy, yhi), _mm_cmpgt_epi32(ylo, wmaxy)),
            );
            let keep = !(_mm_movemask_ps(_mm_castsi128_ps(miss)) as u32) & live;
            // SAFETY: `keep` has bits only in `live`, lanes below `n - i`,
            // so every `i + j < count`.
            each_bit(keep, |j| f(unsafe { scan.get_unchecked(i + j) }));
            i += 4;
        }
        for k in i..n {
            let e = scan.get(k);
            if w.intersects(&e.rect) {
                f(e);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn contain_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let mut i = 0;
        while i < n {
            let Some(live) = step_mask(scan, i, n, 8) else {
                break;
            };
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let miss = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpgt_epi32(xlo, px), _mm256_cmpgt_epi32(px, xhi)),
                _mm256_or_si256(_mm256_cmpgt_epi32(ylo, py), _mm256_cmpgt_epi32(py, yhi)),
            );
            let keep = !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & live;
            // SAFETY: `keep` has bits only in `live`, lanes below `n - i`,
            // so every `i + j < count`.
            each_bit(keep, |j| f(unsafe { scan.get_unchecked(i + j) }));
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            if e.rect.contains_point(p) {
                f(e);
            }
        }
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn contain_sse2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm_set1_epi32(p.x);
        let py = _mm_set1_epi32(p.y);
        let mut i = 0;
        while i < n {
            let Some(live) = step_mask(scan, i, n, 4) else {
                break;
            };
            let xlo = load4(scan, 0, i);
            let ylo = load4(scan, 1, i);
            let xhi = load4(scan, 2, i);
            let yhi = load4(scan, 3, i);
            let miss = _mm_or_si128(
                _mm_or_si128(_mm_cmpgt_epi32(xlo, px), _mm_cmpgt_epi32(px, xhi)),
                _mm_or_si128(_mm_cmpgt_epi32(ylo, py), _mm_cmpgt_epi32(py, yhi)),
            );
            let keep = !(_mm_movemask_ps(_mm_castsi128_ps(miss)) as u32) & live;
            // SAFETY: `keep` has bits only in `live`, lanes below `n - i`,
            // so every `i + j < count`.
            each_bit(keep, |j| f(unsafe { scan.get_unchecked(i + j) }));
            i += 4;
        }
        for k in i..n {
            let e = scan.get(k);
            if e.rect.contains_point(p) {
                f(e);
            }
        }
    }

    // Distance kernels: dx = max(xlo − px, px − xhi, 0) per lane (exact
    // within the documented i32-difference domain), then dx² + dy² via
    // unsigned 32→64-bit lane multiplies — dx/dy are non-negative and
    // < 2^31, so `mul_epu32` of a lane with itself is the exact square.
    // Even-indexed entries come straight out of the register; odd-indexed
    // ones after a 32-bit lane shift.

    #[target_feature(enable = "avx2")]
    pub unsafe fn dist2_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry, i64)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        let mut even = [0i64; 4];
        let mut odd = [0i64; 4];
        while i + 8 <= n {
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let dx = _mm256_max_epi32(
                _mm256_max_epi32(_mm256_sub_epi32(xlo, px), _mm256_sub_epi32(px, xhi)),
                zero,
            );
            let dy = _mm256_max_epi32(
                _mm256_max_epi32(_mm256_sub_epi32(ylo, py), _mm256_sub_epi32(py, yhi)),
                zero,
            );
            let d2_even = _mm256_add_epi64(_mm256_mul_epu32(dx, dx), _mm256_mul_epu32(dy, dy));
            let dx_o = _mm256_srli_epi64(dx, 32);
            let dy_o = _mm256_srli_epi64(dy, 32);
            let d2_odd =
                _mm256_add_epi64(_mm256_mul_epu32(dx_o, dx_o), _mm256_mul_epu32(dy_o, dy_o));
            _mm256_storeu_si256(even.as_mut_ptr() as *mut __m256i, d2_even);
            _mm256_storeu_si256(odd.as_mut_ptr() as *mut __m256i, d2_odd);
            for j in 0..8 {
                let d = if j & 1 == 0 { even[j / 2] } else { odd[j / 2] };
                // SAFETY: the loop runs while `i + width <= n`.
                f(unsafe { scan.get_unchecked(i + j) }, d);
            }
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            f(e, e.rect.dist2_point(p));
        }
    }

    /// `max(a, b)` on i32 lanes without SSE4.1's `pmaxsd`.
    #[inline(always)]
    unsafe fn max_epi32_sse2(a: __m128i, b: __m128i) -> __m128i {
        unsafe {
            let gt = _mm_cmpgt_epi32(a, b);
            _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
        }
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn dist2_sse2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry, i64)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm_set1_epi32(p.x);
        let py = _mm_set1_epi32(p.y);
        let zero = _mm_setzero_si128();
        let mut i = 0;
        let mut even = [0i64; 2];
        let mut odd = [0i64; 2];
        while i + 4 <= n {
            let xlo = load4(scan, 0, i);
            let ylo = load4(scan, 1, i);
            let xhi = load4(scan, 2, i);
            let yhi = load4(scan, 3, i);
            let dx = max_epi32_sse2(
                max_epi32_sse2(_mm_sub_epi32(xlo, px), _mm_sub_epi32(px, xhi)),
                zero,
            );
            let dy = max_epi32_sse2(
                max_epi32_sse2(_mm_sub_epi32(ylo, py), _mm_sub_epi32(py, yhi)),
                zero,
            );
            let d2_even = _mm_add_epi64(_mm_mul_epu32(dx, dx), _mm_mul_epu32(dy, dy));
            let dx_o = _mm_srli_epi64(dx, 32);
            let dy_o = _mm_srli_epi64(dy, 32);
            let d2_odd = _mm_add_epi64(_mm_mul_epu32(dx_o, dx_o), _mm_mul_epu32(dy_o, dy_o));
            _mm_storeu_si128(even.as_mut_ptr() as *mut __m128i, d2_even);
            _mm_storeu_si128(odd.as_mut_ptr() as *mut __m128i, d2_odd);
            for j in 0..4 {
                let d = if j & 1 == 0 { even[j / 2] } else { odd[j / 2] };
                // SAFETY: the loop runs while `i + width <= n`.
                f(unsafe { scan.get_unchecked(i + j) }, d);
            }
            i += 4;
        }
        for k in i..n {
            let e = scan.get(k);
            f(e, e.rect.dist2_point(p));
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{contain_avx2, contain_sse2, dist2_avx2, dist2_sse2, intersect_avx2, intersect_sse2};

// ----------------------------------------------------------------------
// Byte-array micro-kernels (non-rectangle structures)
// ----------------------------------------------------------------------

/// Decode a packed array of `u32` LE ids (a uniform-grid bucket chain
/// page's payload region) and emit each one.
pub fn scan_ids(bytes: &[u8], mut f: impl FnMut(u32)) {
    for chunk in bytes.chunks_exact(4) {
        f(u32::from_le_bytes(
            chunk.try_into().expect("exact id chunk"),
        ));
    }
}

/// Walk a packed array of ascending `u64` LE keys (a B-tree leaf's key
/// region), emitting each key `<= hi` and stopping at the first key past
/// `hi`. The callback's `Break` short-circuits, as in range scans.
pub fn scan_keys_le(
    bytes: &[u8],
    hi: u64,
    f: &mut impl FnMut(u64) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for chunk in bytes.chunks_exact(8) {
        let k = u64::from_le_bytes(chunk.try_into().expect("exact key chunk"));
        if k > hi {
            break;
        }
        f(k)?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rectnode::ENTRY;
    use lsdb_rng::StdRng;

    /// Build a node page holding `n` random entries, including degenerate
    /// (zero-area) rectangles — segments are often axis-aligned, so the
    /// kernels must handle `min == max` on either axis.
    fn random_page(rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; HDR + n * ENTRY];
        RectNode::init(&mut buf, true);
        for i in 0..n {
            let x0 = rng.gen_range(-1000..1000);
            let y0 = rng.gen_range(-1000..1000);
            let (w, h) = if rng.gen_bool(0.25) {
                (0, 0) // zero-area rect
            } else {
                (rng.gen_range(0..100), rng.gen_range(0..100))
            };
            RectNode::push(
                &mut buf,
                Entry {
                    rect: Rect::new(x0, y0, x0 + w, y0 + h),
                    child: i as u32,
                },
            );
        }
        buf
    }

    /// The ISAs this host can run — every one must agree with the naive
    /// reference (the full cross-ISA matrix lives in
    /// `tests/kernel_differential.rs`).
    fn isas() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.available()).collect()
    }

    #[test]
    fn intersecting_matches_naive_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sizes straddle the widest block: full blocks, ragged tails, and
        // partially-filled nodes below one block.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 50, 101] {
            let buf = random_page(&mut rng, n);
            let w = Rect::new(-300, -300, 250, 400);
            let naive: Vec<Entry> = RectNode::entries(&buf)
                .into_iter()
                .filter(|e| w.intersects(&e.rect))
                .collect();
            for isa in isas() {
                let mut got = Vec::new();
                let scanned =
                    scan_intersecting_with(isa, &EntryScan::of_node(&buf), &w, |e| got.push(e));
                assert_eq!(scanned, n, "kernel scans every entry");
                assert_eq!(got, naive, "n={n} isa={isa:?}");
            }
        }
    }

    #[test]
    fn containing_point_matches_naive_loop() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [0, 1, 3, 4, 6, 8, 11, 50] {
            let buf = random_page(&mut rng, n);
            // Probe corners and interiors of stored rects, not just random
            // points: closed-boundary semantics must match exactly.
            let mut probes = vec![Point::new(0, 0), Point::new(-37, 44)];
            for e in RectNode::entries(&buf) {
                probes.push(e.rect.min);
                probes.push(e.rect.max);
            }
            for p in probes {
                let naive: Vec<Entry> = RectNode::entries(&buf)
                    .into_iter()
                    .filter(|e| e.rect.contains_point(p))
                    .collect();
                for isa in isas() {
                    let mut got = Vec::new();
                    let scanned =
                        scan_containing_point_with(isa, &EntryScan::of_node(&buf), p, |e| {
                            got.push(e)
                        });
                    assert_eq!(scanned, n);
                    assert_eq!(got, naive, "n={n} p={p:?} isa={isa:?}");
                }
            }
        }
    }

    #[test]
    fn min_dist2_matches_rect_dist2_point() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [0, 1, 4, 5, 8, 9, 50] {
            let buf = random_page(&mut rng, n);
            for _ in 0..8 {
                let p = Point::new(rng.gen_range(-1500..1500), rng.gen_range(-1500..1500));
                let naive: Vec<(Entry, i64)> = RectNode::entries(&buf)
                    .into_iter()
                    .map(|e| (e, e.rect.dist2_point(p)))
                    .collect();
                for isa in isas() {
                    let mut got = Vec::new();
                    let scanned = scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |e, d| {
                        got.push((e, d))
                    });
                    assert_eq!(scanned, n);
                    assert_eq!(got, naive, "n={n} p={p:?} isa={isa:?}");
                }
            }
        }
    }

    #[test]
    fn min_dist2_extreme_coordinates_match_reference() {
        // The widest domain `Rect::dist2_point` itself supports (per-axis
        // differences must fit i32, far beyond world coordinates): every
        // ISA arm must agree there too.
        const M: i32 = (1 << 30) - 1;
        let mut buf = vec![0u8; HDR + 9 * ENTRY];
        RectNode::init(&mut buf, true);
        let r = Rect::new(-M, -M, -M, -M);
        let r2 = Rect::new(M - 1, M - 1, M, M);
        RectNode::push(&mut buf, Entry { rect: r, child: 0 });
        RectNode::push(&mut buf, Entry { rect: r2, child: 1 });
        // Pad to a full 8-block plus a tail so the vector path runs.
        for c in 2..9 {
            RectNode::push(
                &mut buf,
                Entry {
                    rect: Rect::new(-M, -M, M, M),
                    child: c,
                },
            );
        }
        let p = Point::new(M, -M);
        for isa in isas() {
            let mut got = Vec::new();
            scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |e, d| {
                got.push((e.child, d))
            });
            assert_eq!(got[0], (0, r.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[1], (1, r2.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[2], (2, 0), "inside the padded rect, isa={isa:?}");
        }
    }

    #[test]
    fn entry_scan_iter_agrees_with_entries_vec() {
        let mut rng = StdRng::seed_from_u64(14);
        let buf = random_page(&mut rng, 23);
        let scan = EntryScan::of_node(&buf);
        assert_eq!(scan.len(), 23);
        assert!(!scan.is_empty());
        assert_eq!(scan.iter().collect::<Vec<_>>(), RectNode::entries(&buf));
        let empty = random_page(&mut rng, 0);
        assert!(EntryScan::of_node(&empty).is_empty());
    }

    #[test]
    fn active_isa_is_cached_and_available() {
        let isa = active_isa();
        assert!(isa.available());
        assert_eq!(active_isa(), isa, "selection is sticky");
    }

    #[test]
    fn scan_ids_decodes_packed_u32() {
        let ids = [7u32, 0, u32::MAX, 41];
        let mut bytes = Vec::new();
        for id in ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let mut got = Vec::new();
        scan_ids(&bytes, |id| got.push(id));
        assert_eq!(got, ids);
    }

    #[test]
    fn scan_keys_le_stops_at_hi_and_short_circuits() {
        let keys = [3u64, 9, 10, 15, 40];
        let mut bytes = Vec::new();
        for k in keys {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        let mut got = Vec::new();
        let r = scan_keys_le(&bytes, 15, &mut |k| {
            got.push(k);
            ControlFlow::Continue(())
        });
        assert_eq!(got, [3, 9, 10, 15]);
        assert!(r.is_continue());
        got.clear();
        let r = scan_keys_le(&bytes, 100, &mut |k| {
            got.push(k);
            if k >= 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(got, [3, 9, 10], "callback break stops the walk");
        assert!(r.is_break());
    }
}
