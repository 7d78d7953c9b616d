//! Reproduce **Table 1** — data structure building statistics.
//!
//! For each of the six counties and each of {R*, R+, PMR}: index size in
//! KB, disk accesses during the build, and CPU seconds (the minimum of
//! [`BUILD_REPS`] builds, which must agree on size and disk accesses). The
//! paper's shape:
//! PMR 13-43% and R+ 26-43% larger than R*; PMR fewest build disk accesses
//! on most maps and R* the most; build CPU R+ < PMR (1.5-1.7×) ≪ R*
//! (7.8-9.1×).
//!
//! Usage: `cargo run --release -p lsdb-bench --bin table1 -- [--scale 0.1]`
//! (a reduced `--scale` for a quick run).

use lsdb_bench::report::{fmt, render_table};
use lsdb_bench::{measure_build_min, IndexKind, WorkloadConfig, BUILD_REPS};
use lsdb_core::IndexConfig;

fn main() {
    let cfg = IndexConfig::default();
    let maps = WorkloadConfig::from_args().counties();
    println!(
        "Table 1: building statistics ({} pages, {}-page LRU pool, {} maps, \
         cpu = min of {BUILD_REPS} builds)\n",
        cfg.page_size,
        cfg.pool_pages,
        maps.len()
    );
    let mut rows = vec![vec![
        "map name".to_string(),
        "segs".to_string(),
        "size R* (KB)".to_string(),
        "size R+".to_string(),
        "size PMR".to_string(),
        "disk R*".to_string(),
        "disk R+".to_string(),
        "disk PMR".to_string(),
        "cpu R* (s)".to_string(),
        "cpu R+".to_string(),
        "cpu PMR".to_string(),
    ]];
    let mut ratios: Vec<(f64, f64, f64, f64)> = Vec::new();
    for map in &maps {
        let mut size = Vec::new();
        let mut disk = Vec::new();
        let mut cpu = Vec::new();
        for kind in IndexKind::paper_three() {
            let (_, rep) = measure_build_min(kind, map, cfg);
            size.push(rep.size_kbytes);
            disk.push(rep.disk_accesses);
            cpu.push(rep.cpu_seconds);
        }
        rows.push(vec![
            map.name.clone(),
            map.len().to_string(),
            fmt(size[0]),
            fmt(size[1]),
            fmt(size[2]),
            disk[0].to_string(),
            disk[1].to_string(),
            disk[2].to_string(),
            format!("{:.2}", cpu[0]),
            format!("{:.2}", cpu[1]),
            format!("{:.2}", cpu[2]),
        ]);
        ratios.push((
            size[1] / size[0],
            size[2] / size[0],
            cpu[0] / cpu[1],
            cpu[2] / cpu[1],
        ));
    }
    println!("{}", render_table(&rows));

    println!("shape checks against the paper:");
    let avg = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        ratios.iter().map(f).sum::<f64>() / ratios.len() as f64
    };
    println!(
        "  R+ size / R* size   : avg {:.2}x   (paper: 1.26-1.43x)",
        avg(|r| r.0)
    );
    println!(
        "  PMR size / R* size  : avg {:.2}x   (paper: 1.13-1.43x)",
        avg(|r| r.1)
    );
    println!(
        "  R* cpu / R+ cpu     : avg {:.1}x   (paper: 7.8-9.1x)",
        avg(|r| r.2)
    );
    println!(
        "  PMR cpu / R+ cpu    : avg {:.1}x   (paper: 1.5-1.7x)",
        avg(|r| r.3)
    );
}
