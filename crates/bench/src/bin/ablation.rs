//! Ablation studies beyond the paper's headline tables:
//!
//! 1. **R-tree insertion/split policies** — the paper attributes the
//!    R\*-tree's slow build to forced reinsertion and its compactness to
//!    the margin/overlap split; Guttman's quadratic and linear splits
//!    quantify that trade-off.
//! 2. **Uniform grid vs adaptive decomposition** — §2: "the uniform grid
//!    is ideal for uniformly distributed data, while quadtree-based
//!    approaches are suited for arbitrarily distributed data".
//! 3. **Deletion** — §2: the price of disjointness "is also paid when we
//!    want to delete an object": deleting the same 10% of segments from
//!    each structure.
//!
//! Usage: `cargo run --release -p lsdb-bench --bin ablation`

use lsdb_bench::report::{fmt, render_table};
use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, measure_build_min, IndexKind, WorkloadConfig, BUILD_REPS};
use lsdb_core::{IndexConfig, SegId, SpatialIndex};

fn main() {
    let cfg = IndexConfig::default();
    let wcfg = WorkloadConfig::from_args();
    let map = wcfg.county("Anne Arundel");
    let n = wcfg.queries.min(500);
    println!(
        "Ablations on {} ({} segments), {} queries per type, \
         build s = min of {BUILD_REPS} builds\n",
        map.name,
        map.len(),
        n
    );
    let wb = QueryWorkbench::new(&map, n, 0xAB1A);

    // 1 + 2: all structures on one table.
    // The STR bulk-loaded R-tree is measured separately below the dynamic
    // structures (it is not an IndexKind: it shares the R-tree type).
    let kinds = [
        IndexKind::RStar,
        IndexKind::RQuadratic,
        IndexKind::RLinear,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::Grid(64),
        IndexKind::Grid(16),
        IndexKind::Repr(8),
    ];
    let mut rows = vec![vec![
        "structure".to_string(),
        "size (KB)".to_string(),
        "build disk".to_string(),
        "build s".to_string(),
        "point disk".to_string(),
        "nearest disk".to_string(),
        "range disk".to_string(),
        "range segc".to_string(),
    ]];
    for kind in kinds {
        let (idx, rep) = measure_build_min(kind, &map, cfg);
        let p = wb.run(Workload::Point1, idx.as_ref());
        let near = wb.run(Workload::NearestTwoStage, idx.as_ref());
        let range = wb.run(Workload::Range, idx.as_ref());
        rows.push(vec![
            kind.label(),
            fmt(rep.size_kbytes),
            rep.disk_accesses.to_string(),
            format!("{:.2}", rep.cpu_seconds),
            fmt(p.disk_accesses),
            fmt(near.disk_accesses),
            fmt(range.disk_accesses),
            fmt(range.seg_comps),
        ]);
    }
    {
        // Extension: STR bulk loading (packed R-tree).
        let start = std::time::Instant::now();
        let mut idx = lsdb_rtree::RTree::bulk_load(&map, cfg);
        let secs = start.elapsed().as_secs_f64();
        idx.clear_cache();
        let build_disk = idx.stats().disk.total();
        idx.reset_stats();
        let p = wb.run(Workload::Point1, &idx);
        let near = wb.run(Workload::NearestTwoStage, &idx);
        let range = wb.run(Workload::Range, &idx);
        rows.push(vec![
            "R* (STR bulk)".to_string(),
            fmt(idx.size_bytes() as f64 / 1024.0),
            build_disk.to_string(),
            format!("{secs:.2}"),
            fmt(p.disk_accesses),
            fmt(near.disk_accesses),
            fmt(range.disk_accesses),
            fmt(range.seg_comps),
        ]);
    }
    println!("{}", render_table(&rows));
    println!("expected: R* smallest/slowest-build of the R-trees; STR bulk loading");
    println!("builds a denser tree many times faster; the 16-cell grid is");
    println!("hopeless on clustered data, the 64-cell grid trades space for it; the");
    println!("representative-point 4-d grid stores compactly but cannot localize");
    println!("window or nearest searches (paper S2).\n");

    // 3: deletion cost — remove every 10th segment.
    println!("Deletion: removing 10% of the segments (disk accesses for the batch)");
    let mut rows = vec![vec![
        "structure".to_string(),
        "delete disk".to_string(),
        "size before (KB)".to_string(),
        "size after".to_string(),
    ]];
    for kind in IndexKind::paper_three() {
        let mut idx = build_index(kind, &map, cfg);
        let before = idx.size_bytes() as f64 / 1024.0;
        idx.reset_stats();
        for i in (0..map.len()).step_by(10) {
            idx.remove(SegId(i as u32));
        }
        let s = idx.stats();
        rows.push(vec![
            kind.label(),
            s.disk.total().to_string(),
            fmt(before),
            fmt(idx.size_bytes() as f64 / 1024.0),
        ]);
    }
    println!("{}", render_table(&rows));
    println!("expected: the disjoint structures (R+, PMR) pay more per delete —");
    println!("a segment must be removed from every bucket it occupies.");
}
