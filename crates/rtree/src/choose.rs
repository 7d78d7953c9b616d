//! ChooseSubtree: which child of an internal node an inserted rectangle
//! descends into.
//!
//! The R\*-tree's rule at the level just above the insertion target is
//! Beckmann et al.'s minimum overlap enlargement: minimize the key
//! `(overlap growth, area enlargement, area, index)`, where a child's
//! overlap growth is `Σ_{o ≠ e} overlap(e ∪ r, o) − overlap(e, o)` over its
//! siblings `o`. Scored naively that is `O(M²)` rectangle intersections per
//! choice — the bulk of an R\*-tree build.
//! [`Scratch::least_overlap_enlargement`] returns exactly the child the
//! full scan returns, but prunes:
//!
//! * **Non-negative terms.** `e ∪ r` contains `e`, so every term is `≥ 0`.
//!   A candidate's running sum is a lower bound on its growth, and its scan
//!   stops once the sum reaches the best growth so far. A child that
//!   already contains `r` has growth 0 without a scan, and only siblings
//!   that intersect `e ∪ r` contribute a term at all.
//! * **A cheap bound first.** Every key is at least
//!   `(0, enlargement, area, index)`. Candidates are visited in ascending
//!   order of that bound, so a later candidate beats the best only with a
//!   strictly smaller growth, and once the best growth is 0 none can.
//! * **The same tie-break.** The child index is the last key component, so
//!   exact ties go to the lowest index, as in the in-order scan with a
//!   strict `<`.
//!
//! Beckmann et al.'s cheaper approximation (score only the 32 children of
//! least area enlargement) is deliberately not used: it changes the trees,
//! and with them every paper counter.

use lsdb_core::rectnode::Entry;
use lsdb_geom::Rect;

/// The child of least area enlargement for `rect`, ties by smallest area,
/// then lowest index (Guttman's rule; the R\*-tree's rule above the level
/// just over the target).
pub(crate) fn least_enlargement(entries: &[Entry], rect: &Rect) -> usize {
    (0..entries.len())
        .min_by_key(|&i| (entries[i].rect.enlargement(rect), entries[i].rect.area(), i))
        .expect("internal node has children")
}

/// Buffers reused across subtree choices, so a choice allocates nothing
/// once they have grown to a node's capacity.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The node's entries, decoded by the caller.
    pub(crate) entries: Vec<Entry>,
    /// Candidates as `(enlargement, area, index)` bounds.
    order: Vec<(i64, i64, usize)>,
}

impl Scratch {
    /// The child of minimum overlap enlargement for `rect` among
    /// `self.entries`, ties by least area enlargement, then smallest area,
    /// then lowest index — exactly the full `O(M²)` scan's choice, found
    /// with the pruning in the module doc.
    pub(crate) fn least_overlap_enlargement(&mut self, rect: &Rect) -> usize {
        let Scratch { entries, order } = self;
        order.clear();
        order.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.rect.enlargement(rect), e.rect.area(), i)),
        );
        // The least bound is most often the answer outright: try it before
        // paying for the sort.
        let first = *order.iter().min().expect("internal node has children");
        let mut best = first.2;
        let mut best_growth = overlap_growth(entries, best, rect, i64::MAX);
        if best_growth == 0 {
            return best;
        }
        order.sort_unstable();
        for &(_, _, i) in &order[1..] {
            // Visited after the best in bound order, a candidate wins only
            // on a strictly smaller growth.
            let growth = overlap_growth(entries, i, rect, best_growth);
            if growth < best_growth {
                best = i;
                best_growth = growth;
                if growth == 0 {
                    break;
                }
            }
        }
        best
    }
}

/// Overlap growth of child `i` when enlarged to cover `rect`, or some
/// value `>= limit` as soon as the running sum shows it is at least that.
fn overlap_growth(entries: &[Entry], i: usize, rect: &Rect, limit: i64) -> i64 {
    let e = entries[i].rect;
    let grown = e.union(rect);
    if grown == e {
        return 0;
    }
    let mut growth = 0;
    for (j, o) in entries.iter().enumerate() {
        // `e ∩ o ⊆ grown ∩ o`: a sibling missing `grown` adds nothing.
        let g = grown.overlap_area(&o.rect);
        if g > 0 && j != i {
            growth += g - e.overlap_area(&o.rect);
            if growth >= limit {
                break;
            }
        }
    }
    growth
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_rng::StdRng;

    /// The unpruned minimum-overlap-enlargement scan: every child scored
    /// against every sibling, in index order, strict `<`.
    fn reference_overlap(entries: &[Entry], rect: &Rect) -> usize {
        let mut best = 0;
        let mut best_key = (i64::MAX, i64::MAX, i64::MAX);
        for (i, e) in entries.iter().enumerate() {
            let grown = e.rect.union(rect);
            let mut overlap_growth = 0;
            for (j, o) in entries.iter().enumerate() {
                if i != j {
                    overlap_growth += grown.overlap_area(&o.rect) - e.rect.overlap_area(&o.rect);
                }
            }
            let key = (overlap_growth, e.rect.enlargement(rect), e.rect.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// The in-order least-enlargement scan with a strict `<`.
    fn reference_enlargement(entries: &[Entry], rect: &Rect) -> usize {
        let mut best = 0;
        let mut best_key = (i64::MAX, i64::MAX);
        for (i, e) in entries.iter().enumerate() {
            let key = (e.rect.enlargement(rect), e.rect.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// A rectangle on a coarse lattice (many exact ties and shared edges),
    /// zero-width or zero-height one time in four each.
    fn rand_rect(rng: &mut StdRng, span: i32) -> Rect {
        let x0 = rng.gen_range(0..span) * 8;
        let y0 = rng.gen_range(0..span) * 8;
        let w = if rng.gen_range(0..4u32) == 0 {
            0
        } else {
            rng.gen_range(1..span / 2) * 8
        };
        let h = if rng.gen_range(0..4u32) == 0 {
            0
        } else {
            rng.gen_range(1..span / 2) * 8
        };
        Rect::new(x0, y0, x0 + w, y0 + h)
    }

    /// A node of `1..=m` children for inserting `query`, mixing random
    /// rects with duplicates of earlier children, rects that contain the
    /// query, and rects that only touch it. One node in four draws its
    /// children from a palette of at most four rects: most keys then tie
    /// exactly, so only the index tie-break separates them.
    fn rand_node(rng: &mut StdRng, m: usize, span: i32, query: &Rect) -> Vec<Entry> {
        let n = rng.gen_range(1..m + 1);
        let palette = rng.gen_range(0..4u32) == 0;
        let mut rects: Vec<Rect> = Vec::with_capacity(n);
        for _ in 0..n {
            let r = match rng.gen_range(0..8u32) {
                _ if palette && rects.len() >= 4 => rects[rng.gen_range(0..4usize)],
                0 if !rects.is_empty() => rects[rng.gen_range(0..rects.len())],
                1 => query.union(&rand_rect(rng, span)),
                2 => {
                    // Shares only the query's right edge.
                    let w = rng.gen_range(0..span) * 8;
                    Rect::new(query.max.x, query.min.y, query.max.x + w, query.max.y)
                }
                3 => {
                    // Shares only the query's bottom-left corner.
                    let s = rng.gen_range(0..span) * 8;
                    Rect::new(query.min.x - s, query.min.y - s, query.min.x, query.min.y)
                }
                _ => rand_rect(rng, span),
            };
            rects.push(r);
        }
        rects
            .into_iter()
            .enumerate()
            .map(|(i, rect)| Entry {
                rect,
                child: i as u32,
            })
            .collect()
    }

    #[test]
    fn pruned_choices_equal_the_full_scan() {
        let mut rng = StdRng::seed_from_u64(0xC405_E001);
        let mut scratch = Scratch::default();
        for case in 0..30_000 {
            // Small spans crowd the children into heavy overlap and ties;
            // large spans leave most children disjoint.
            let span = [4, 16, 512][case % 3];
            let m = [4, 10, 50][rng.gen_range(0..3usize)];
            let query = rand_rect(&mut rng, span);
            let node = rand_node(&mut rng, m, span, &query);
            scratch.entries.clone_from(&node);
            assert_eq!(
                scratch.least_overlap_enlargement(&query),
                reference_overlap(&node, &query),
                "case {case}: query {query:?} node {node:?}"
            );
            assert_eq!(
                least_enlargement(&node, &query),
                reference_enlargement(&node, &query),
                "case {case}: query {query:?} node {node:?}"
            );
        }
    }

    #[test]
    fn exact_ties_go_to_the_lowest_index() {
        let query = Rect::new(10, 10, 20, 20);
        // Thirty-nine copies of one child, and at index 17 a child `z`
        // that needs less area enlargement but gains more overlap (4 per
        // copy) than any copy does (25, all from `z`). `z` is scored
        // first and loses; the copies then tie on every key component but
        // the index, and the lowest index must win.
        let copy = Rect::new(0, 0, 12, 12);
        let z = Rect::new(15, 15, 30, 30);
        let node: Vec<Entry> = (0..40)
            .map(|i| Entry {
                rect: if i == 17 { z } else { copy },
                child: i,
            })
            .collect();
        assert_eq!(reference_overlap(&node, &query), 0);
        let mut scratch = Scratch {
            entries: node,
            ..Default::default()
        };
        assert_eq!(scratch.least_overlap_enlargement(&query), 0);
        assert_eq!(least_enlargement(&scratch.entries, &query), 17);
        // A child that already holds the query wins outright.
        scratch.entries[25].rect = Rect::new(0, 0, 30, 30);
        assert_eq!(scratch.least_overlap_enlargement(&query), 25);
    }
}
