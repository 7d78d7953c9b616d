//! Structure-agnostic traversal engines — the one query algorithm under
//! all of the paper's structures.
//!
//! The paper's thesis is that the R\*-tree, R+-tree and PMR quadtree
//! differ only in *node decomposition policy*; the query algorithms
//! (depth-first search for point and window queries, Hoel & Samet's
//! incremental best-first search for ranked neighbors) are identical.
//! This module makes that literal: each structure implements [`NodeAccess`]
//! — "seed the traversal, expand a node into child nodes and leaf segment
//! entries, charging the right counters" — and the engines here own the
//! search loops, the priority queue, the dedup sets and the result
//! ordering. A structure crate contains no recursion and no heap of its
//! own.
//!
//! # Counter-charging contract
//!
//! The engines charge exactly two things themselves:
//!
//! * one `seg_comps` (plus segment-pool disk) per segment record fetched
//!   through [`SegmentTable::get`] — for DFS entries that survive dedup,
//!   and for every nearest-neighbor candidate popped from the queue;
//! * nothing else. All `bbox_comps` and index-pool disk charges are made
//!   by the structure inside its seed/expand callbacks (one bbox per
//!   R-tree entry scanned, one per PMR bucket located-or-scanned, one per
//!   grid cell examined), which is what lets each structure keep its
//!   paper-faithful accounting while sharing the loop. The stored-rect
//!   prefilter of the R-tree family likewise lives structure-side, inside
//!   the batched kernels of [`crate::scan`]: an expansion emits exactly
//!   the entries whose stored rectangle meets the query region, so the
//!   engine sees the same fetch set, in the same order, as when it
//!   applied the prefilter itself.
//!
//! # Determinism and tie-breaking
//!
//! DFS visits nodes in emission order (depth-first, matching the classic
//! recursive formulation). Best-first search orders its queue by
//! `(lower bound, kind, tie)`: at equal distance, unexpanded *nodes* come
//! first, then unresolved *candidates*, then *exact* results ordered by
//! `SegId`. Expanding every region that could still contain an
//! equal-distance segment before reporting anything at that distance makes
//! the output totally ordered by `(distance, SegId)` — the documented
//! tie-break rule of [`crate::SpatialIndex::nearest_k`].
//!
//! # Dedup policy
//!
//! A segment stored in several leaves or buckets must be reported once.
//! Point queries mark an id when it is *emitted* (passes the endpoint
//! test), so a copy rejected in one leaf is fetched again from another —
//! the R+-tree's historical multi-leaf accounting. They emit only the
//! segments incident to one point, so the marks go in a short list
//! searched linearly (at most 4 ids on the measured serving mixes),
//! spilling into a hash set only past 32 ids, a worst-case bound for hub
//! vertices. Window queries mark on first *encounter* and
//! nearest-neighbor queries on first report, both in a `SegId` hash set.
//! The rules, not the containers, fix the counters.
//!
//! # Scratch-buffer reuse
//!
//! Every engine borrows a `Scratch` (stacks, sinks, priority queue,
//! dedup sets) cached inside the [`QueryCtx`], one per node type, so a
//! context that moves between structures (R-tree rectangles, PMR blocks,
//! grid cells) finds each structure's buffers where it left them.
//! Buffers are cleared, never dropped, between queries, and the
//! buffer-pool pin path recycles page boxes the same way — so a warmed-up
//! context runs probes, window scans and nearest-neighbor queries without
//! allocating, on one structure or alternating several.

use crate::{LocId, QueryCtx, SegId, SegmentTable};
use lsdb_geom::{Dist2, Point, Rect};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::hash::BuildHasherDefault;

/// The expansion policy a structure contributes to the shared engines.
///
/// Each method receives the query context (to charge disk and bbox/bucket
/// counters) and a sink to emit child nodes and leaf segment entries into.
/// Regions and lower bounds must be *conservative*: a point query expands
/// only nodes whose region contains the point, a window query only nodes
/// whose region meets the window, and every nearest-neighbor bound must
/// not exceed the true distance of anything stored under the node.
pub trait NodeAccess {
    /// Traversal handle for one node: a page id + level for the R-trees, a
    /// quadtree block for the PMR, a cell coordinate for the grid.
    type Node: Copy + Send + 'static;

    /// The segment table the engines fetch records from (charging one
    /// `seg_comps` per fetch).
    fn table(&self) -> &SegmentTable;

    /// Start a point query: push the root (trees) or resolve the bucket
    /// containing `p` outright (PMR, grid). With `probe_only` the
    /// traversal must visit (and charge) the same index pages but emit no
    /// segment entries — the paper's "locate the leaf" step of query 2.
    /// The first leaf reached reports its id via [`DfsSink::arrive`].
    fn seed_point(
        &self,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Expand one node of a point query: child nodes whose region contains
    /// `p`, or this leaf's entries.
    fn expand_point(
        &self,
        node: Self::Node,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Start a window query.
    fn seed_window(&self, w: Rect, ctx: &mut QueryCtx, sink: &mut DfsSink<Self::Node>);

    /// Expand one node of a window query: child nodes/entries whose region
    /// meets `w`.
    fn expand_window(
        &self,
        node: Self::Node,
        w: Rect,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Start a nearest-neighbor query: enqueue roots/buckets with
    /// conservative lower bounds.
    fn seed_nearest(&self, p: Point, ctx: &mut QueryCtx, sink: &mut NnSink<Self::Node>);

    /// Expand one node of a nearest-neighbor query into child nodes and/or
    /// candidates, each with a conservative lower bound.
    fn expand_nearest(
        &self,
        node: Self::Node,
        p: Point,
        ctx: &mut QueryCtx,
        sink: &mut NnSink<Self::Node>,
    );
}

/// Emission buffer for the depth-first engines. Nodes are visited in
/// emission order; entries are resolved (dedup → fetch → predicate) as
/// soon as the emitting expansion returns.
pub struct DfsSink<N> {
    nodes: Vec<N>,
    entries: Vec<SegId>,
    arrived: Option<LocId>,
}

impl<N> Default for DfsSink<N> {
    fn default() -> Self {
        DfsSink {
            nodes: Vec::new(),
            entries: Vec::new(),
            arrived: None,
        }
    }
}

impl<N> DfsSink<N> {
    /// Emit a child node to visit (in emission order, depth-first).
    pub fn node(&mut self, n: N) {
        self.nodes.push(n);
    }

    /// Reverse the nodes emitted so far by the current expansion. For
    /// structures whose legacy traversal popped a plain stack (the PMR
    /// quadtree), emitting in storage order and reversing reproduces the
    /// historical visit order exactly.
    pub fn reverse_nodes(&mut self) {
        self.nodes.reverse();
    }

    /// Emit a leaf entry for the engine to resolve (dedup, fetch the
    /// record, apply the exact segment predicate). A structure that
    /// stores per-entry bounding rectangles (the R-tree family) emits
    /// only the entries whose rectangle meets the query region — its
    /// scan kernel applies that prefilter; bucket structures (PMR, grid)
    /// emit every bucket entry.
    pub fn entry(&mut self, id: SegId) {
        self.entries.push(id);
    }

    /// Report arrival at a leaf/bucket; the first report wins and becomes
    /// the probe result.
    pub fn arrive(&mut self, loc: LocId) {
        if self.arrived.is_none() {
            self.arrived = Some(loc);
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.entries.clear();
        self.arrived = None;
    }
}

/// What one best-first queue element resolves to.
enum NnItem<N> {
    Node(N),
    Candidate(SegId),
    Exact(SegId),
}

/// Queue element ordered by `(lower bound, kind, tie)`. Kind ranks nodes
/// before candidates before exacts so every region/candidate that could
/// still produce an equal-distance result resolves before anything at that
/// distance is reported; exact ties break by `SegId`, making the output
/// totally ordered by `(distance, SegId)`.
struct NnEntry<N> {
    dist: Dist2,
    rank: u8,
    tie: u64,
    item: NnItem<N>,
}

impl<N> PartialEq for NnEntry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<N> Eq for NnEntry<N> {}
impl<N> PartialOrd for NnEntry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for NnEntry<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .cmp(&other.dist)
            .then(self.rank.cmp(&other.rank))
            .then(self.tie.cmp(&other.tie))
    }
}

/// Emission buffer for the best-first engine: the single shared min-heap.
pub struct NnSink<N> {
    heap: BinaryHeap<Reverse<NnEntry<N>>>,
    seq: u64,
}

impl<N> Default for NnSink<N> {
    fn default() -> Self {
        NnSink {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<N> NnSink<N> {
    /// Enqueue a node at a conservative lower bound.
    pub fn node(&mut self, n: N, lower_bound: Dist2) {
        self.seq += 1;
        self.heap.push(Reverse(NnEntry {
            dist: lower_bound,
            rank: 0,
            tie: self.seq,
            item: NnItem::Node(n),
        }));
    }

    /// Enqueue a candidate segment at a conservative lower bound (its
    /// exact distance is computed — one segment comparison — when it
    /// pops).
    pub fn candidate(&mut self, id: SegId, lower_bound: Dist2) {
        self.seq += 1;
        self.heap.push(Reverse(NnEntry {
            dist: lower_bound,
            rank: 1,
            tie: self.seq,
            item: NnItem::Candidate(id),
        }));
    }

    /// Enqueue a segment at its *exact* distance (the structure already
    /// fetched the record and charged the comparison). Popping it reports
    /// it — no further resolution.
    pub fn exact(&mut self, id: SegId, dist: Dist2) {
        self.heap.push(Reverse(NnEntry {
            dist,
            rank: 2,
            tie: id.0 as u64,
            item: NnItem::Exact(id),
        }));
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

/// The window and nearest-neighbor dedup set: segment ids are dense
/// integers assigned by the table, so the pager's multiplicative
/// [`lsdb_pager::IdHasher`] replaces SipHash on this per-entry hot path.
type SegIdSet = HashSet<SegId, BuildHasherDefault<lsdb_pager::IdHasher>>;

/// Past this many emitted ids a point query's dedup list spills into the
/// hash set (see [`Dedup`]).
const SMALL_SEEN: usize = 32;

/// The depth-first engine's dedup state. Windows use the hash set alone.
/// Point queries use `small`, a plain list of the ids already emitted: a
/// point query emits only the segments with an endpoint at the query
/// point (a map vertex's degree: on the Charles county point, polygon
/// and read/write serving mixes at most 4 ids, 2 or fewer for about 97%
/// of queries), so a linear search of a few ids beats hashing every
/// fetched entry. The spill into the hash set past [`SMALL_SEEN`] ids is
/// never taken there; it exists only as a worst-case bound, so that a
/// hub vertex of very high degree cannot make the dedup quadratic.
struct Dedup<'a> {
    small: &'a mut Vec<SegId>,
    set: &'a mut SegIdSet,
}

impl Dedup<'_> {
    fn contains(&self, id: SegId) -> bool {
        if self.small.len() <= SMALL_SEEN {
            self.small.contains(&id)
        } else {
            self.set.contains(&id)
        }
    }

    fn insert(&mut self, id: SegId) {
        if self.small.len() < SMALL_SEEN {
            self.small.push(id);
        } else {
            if self.small.len() == SMALL_SEEN {
                self.set.extend(self.small.iter().copied());
                // One sentinel past the bound marks the spill.
                self.small.push(id);
            }
            self.set.insert(id);
        }
    }
}

/// Per-context reusable traversal state. Cached in the [`QueryCtx`]
/// across queries (and across `reset`), so steady-state traversals reuse
/// capacity instead of allocating.
struct Scratch<N> {
    stack: Vec<N>,
    sink: DfsSink<N>,
    nn: NnSink<N>,
    seen: SegIdSet,
    seen_small: Vec<SegId>,
}

impl<N> Default for Scratch<N> {
    fn default() -> Self {
        Scratch {
            stack: Vec::new(),
            sink: DfsSink::default(),
            nn: NnSink::default(),
            seen: SegIdSet::default(),
            seen_small: Vec::new(),
        }
    }
}

fn take_scratch<N: Copy + Send + 'static>(ctx: &mut QueryCtx) -> Box<Scratch<N>> {
    // One scratch per node type: a context moving between structures
    // finds each one's buffers where it left them.
    ctx.take_scratch_slot::<Scratch<N>>().unwrap_or_default()
}

fn put_scratch<N: Copy + Send + 'static>(ctx: &mut QueryCtx, s: Box<Scratch<N>>) {
    ctx.put_scratch_slot(s);
}

/// Which DFS query is running (decides prefilter, dedup policy and the
/// segment predicate).
enum DfsQuery {
    /// Incidence/probe at a point. Dedup marks ids on *emission* (a record
    /// seen in one leaf and rejected is re-fetched from another — the
    /// historical multi-leaf accounting of the R+-tree), in [`Dedup`]'s
    /// short list.
    Point { p: Point, probe_only: bool },
    /// Window scan. Dedup marks ids on first *encounter*: a record fetched
    /// once is never fetched again, match or not.
    Window { w: Rect },
}

/// The depth-first engine under `find_incident`, `probe_point`, `window`
/// and `window_visit`. Returns the first leaf/bucket arrival.
fn dfs_visit<A: NodeAccess>(
    acc: &A,
    q: DfsQuery,
    ctx: &mut QueryCtx,
    emit: &mut dyn FnMut(SegId),
) -> LocId {
    let mut s = take_scratch::<A::Node>(ctx);
    let Scratch {
        stack,
        sink,
        seen,
        seen_small,
        ..
    } = &mut *s;
    stack.clear();
    sink.clear();
    seen.clear();
    seen_small.clear();
    let mut dedup = Dedup {
        small: seen_small,
        set: seen,
    };
    let mut loc = LocId::NONE;
    match q {
        DfsQuery::Point { p, probe_only } => acc.seed_point(p, probe_only, ctx, sink),
        DfsQuery::Window { w } => acc.seed_window(w, ctx, sink),
    }
    loop {
        if loc == LocId::NONE {
            if let Some(l) = sink.arrived.take() {
                loc = l;
            }
        }
        for &id in &sink.entries {
            match q {
                DfsQuery::Point { p, .. } => {
                    if dedup.contains(id) {
                        continue;
                    }
                    let seg = acc.table().get(id, ctx);
                    if seg.has_endpoint(p) {
                        dedup.insert(id);
                        emit(id);
                    }
                }
                DfsQuery::Window { w } => {
                    if !dedup.set.insert(id) {
                        continue;
                    }
                    let seg = acc.table().get(id, ctx);
                    if w.intersects_segment(&seg) {
                        emit(id);
                    }
                }
            }
        }
        sink.entries.clear();
        // Visit emitted nodes in emission order: push the block reversed,
        // pop the top — exactly the classic recursion's pre-order.
        let base = stack.len();
        stack.append(&mut sink.nodes);
        stack[base..].reverse();
        let Some(n) = stack.pop() else { break };
        match q {
            DfsQuery::Point { p, probe_only } => acc.expand_point(n, p, probe_only, ctx, sink),
            DfsQuery::Window { w } => acc.expand_window(n, w, ctx, sink),
        }
    }
    put_scratch(ctx, s);
    loc
}

/// Query 1 engine: all segments with an endpoint exactly at `p`.
pub fn find_incident<A: NodeAccess>(acc: &A, p: Point, ctx: &mut QueryCtx) -> Vec<SegId> {
    let mut out = Vec::new();
    incident_visit(acc, p, ctx, &mut |id| out.push(id));
    out
}

/// Query 1 engine, streaming: like [`find_incident`] but emitting into a
/// caller-owned sink, so repeated callers (the polygon walk fires one
/// incidence query per boundary vertex) reuse one buffer instead of
/// allocating a fresh `Vec` per call. Identical traversal, identical
/// counters.
pub fn incident_visit<A: NodeAccess>(
    acc: &A,
    p: Point,
    ctx: &mut QueryCtx,
    f: &mut dyn FnMut(SegId),
) {
    dfs_visit(
        acc,
        DfsQuery::Point {
            p,
            probe_only: false,
        },
        ctx,
        f,
    );
}

/// Point-location engine: visit the same index pages as a point query,
/// fetch no segment records, report the first leaf/bucket reached.
pub fn probe_point<A: NodeAccess>(acc: &A, p: Point, ctx: &mut QueryCtx) -> LocId {
    dfs_visit(
        acc,
        DfsQuery::Point {
            p,
            probe_only: true,
        },
        ctx,
        &mut |_| {},
    )
}

/// Query 5 engine, streaming: every segment meeting `w`, once each.
pub fn window_visit<A: NodeAccess>(acc: &A, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
    dfs_visit(acc, DfsQuery::Window { w }, ctx, f);
}

/// Query 5 engine, materializing.
pub fn window<A: NodeAccess>(acc: &A, w: Rect, ctx: &mut QueryCtx) -> Vec<SegId> {
    let mut out = Vec::new();
    window_visit(acc, w, ctx, &mut |id| out.push(id));
    out
}

/// The incremental best-first loop under both nearest-neighbor entry
/// points: emits the first `k` distinct segments in `(distance, SegId)`
/// order.
fn best_first_drive<A: NodeAccess>(
    acc: &A,
    p: Point,
    k: usize,
    ctx: &mut QueryCtx,
    emit: &mut dyn FnMut(SegId),
) {
    if k == 0 {
        return;
    }
    let mut s = take_scratch::<A::Node>(ctx);
    let Scratch { nn, seen, .. } = &mut *s;
    nn.clear();
    seen.clear();
    acc.seed_nearest(p, ctx, nn);
    let mut emitted = 0usize;
    while let Some(Reverse(NnEntry { item, .. })) = nn.heap.pop() {
        match item {
            NnItem::Exact(id) => {
                // A segment stored in several leaves/buckets resolves to
                // several exacts; report it once.
                if seen.insert(id) {
                    emit(id);
                    emitted += 1;
                    if emitted == k {
                        break;
                    }
                }
            }
            NnItem::Candidate(id) => {
                let seg = acc.table().get(id, ctx);
                nn.exact(id, seg.dist2_point(p));
            }
            NnItem::Node(n) => acc.expand_nearest(n, p, ctx, nn),
        }
    }
    put_scratch(ctx, s);
}

/// Query 3 engine: a segment at minimal distance from `p` (smallest
/// `SegId` among equidistant ones).
pub fn best_first_nearest<A: NodeAccess>(acc: &A, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
    let mut found = None;
    best_first_drive(acc, p, 1, ctx, &mut |id| found = Some(id));
    found
}

/// Ranked-retrieval engine: the `k` nearest segments in
/// `(distance, SegId)` order.
pub fn best_first_nearest_k<A: NodeAccess>(
    acc: &A,
    p: Point,
    k: usize,
    ctx: &mut QueryCtx,
) -> Vec<SegId> {
    let mut out = Vec::new();
    best_first_drive(acc, p, k, ctx, &mut |id| out.push(id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_entry_order_is_dist_then_kind_then_tie() {
        let e = |dist: i64, rank: u8, tie: u64| NnEntry::<u32> {
            dist: Dist2::from_int(dist),
            rank,
            tie,
            item: NnItem::Exact(SegId(0)),
        };
        assert!(e(1, 2, 0) < e(2, 0, 0), "distance dominates");
        assert!(e(5, 0, 9) < e(5, 2, 1), "nodes resolve before exacts");
        assert!(e(5, 2, 3) < e(5, 2, 4), "exact ties break by id");
    }

    #[test]
    fn scratch_is_reused_across_queries() {
        let mut ctx = QueryCtx::new();
        let mut s = take_scratch::<u32>(&mut ctx);
        s.stack.reserve(64);
        let cap = s.stack.capacity();
        s.stack.push(7);
        put_scratch(&mut ctx, s);
        ctx.reset();
        let s = take_scratch::<u32>(&mut ctx);
        assert!(s.stack.capacity() >= cap, "capacity survives reset");
        // A differently-typed scratch starts fresh instead of panicking,
        // and does not displace the first one.
        put_scratch(&mut ctx, s);
        let mut other = take_scratch::<(i32, i32)>(&mut ctx);
        assert_eq!(other.stack.capacity(), 0);
        other.stack.push((1, 2));
        put_scratch(&mut ctx, other);
        let s = take_scratch::<u32>(&mut ctx);
        assert!(s.stack.capacity() >= cap, "each node type keeps its own");
        put_scratch(&mut ctx, s);
        assert!(take_scratch::<(i32, i32)>(&mut ctx).stack.capacity() >= 1);
    }

    #[test]
    fn point_dedup_spills_to_the_set_past_the_short_list() {
        let (mut small, mut set) = (Vec::new(), SegIdSet::default());
        let mut d = Dedup {
            small: &mut small,
            set: &mut set,
        };
        for i in 0..(3 * SMALL_SEEN as u32) {
            assert!(!d.contains(SegId(i)), "{i} not yet inserted");
            d.insert(SegId(i));
            for j in [0, i / 2, i] {
                assert!(d.contains(SegId(j)), "{j} inserted before {i}");
            }
        }
        assert!(!d.contains(SegId(3 * SMALL_SEEN as u32)));
    }
}
