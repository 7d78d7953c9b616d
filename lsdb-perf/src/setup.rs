//! Set-up: the county, the three paper structures, and their durable
//! stores — everything that must exist before the first request is sent.

use lsdb_core::{
    DurableMap, FileLog, FileStorage, IndexConfig, LiveIndex, PolygonalMap, SpatialIndex,
};
use lsdb_geom::Rect;
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_rplus::RPlusTree;
use lsdb_rtree::{RTree, RTreeKind};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Charles county's target segment count; the generator lands on
/// 46,821 segments for it.
pub const CHARLES_SEGMENTS: usize = 50_998;

/// Catalog map names, in map-id order.
pub const STRUCTURES: [&str; 3] = ["rstar", "rplus", "pmr"];

/// Seconds spent in each part of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// Build seconds, in [`STRUCTURES`] order.
    pub build_s: [f64; 3],
    /// Creating the three durable stores and replaying their (empty)
    /// op logs.
    pub live_open_s: f64,
}

/// One set-up's result: the map and its three live, durable indexes.
pub struct Stack {
    pub map: PolygonalMap,
    /// R*, R+ and PMR, each over its own file-backed op log.
    pub lives: Vec<LiveIndex>,
    /// PMR leaf blocks, the 2-stage point generator's first stage.
    pub blocks: Vec<Rect>,
    /// Summed `size_bytes()` of the three indexes.
    pub index_bytes: u64,
    pub times: SetupTimes,
    store: PathBuf,
}

impl Stack {
    /// Build the synthetic Charles county at `segments` target segments
    /// (the same county on every run: which requests run is what the
    /// seed varies), the three structures with the paper's 1 KB pages
    /// and 16-page pools, and one durable op log per structure under
    /// `store` (created fresh).
    pub fn build(segments: usize, store: &Path) -> io::Result<Stack> {
        let cfg = IndexConfig::default();
        let start = Instant::now();
        let spec = lsdb_tiger::county("Charles")
            .expect("Charles is one of the six counties")
            .with_target(segments);
        let map = lsdb_tiger::generate(&spec);
        let mut times = SetupTimes {
            generate_s: start.elapsed().as_secs_f64(),
            ..SetupTimes::default()
        };

        let t = Instant::now();
        let rstar: Box<dyn SpatialIndex> = Box::new(RTree::build(&map, cfg, RTreeKind::RStar));
        times.build_s[0] = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rplus: Box<dyn SpatialIndex> = Box::new(RPlusTree::build(&map, cfg));
        times.build_s[1] = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut pmr = PmrQuadtree::build(
            &map,
            PmrConfig {
                index: cfg,
                ..PmrConfig::default()
            },
        );
        times.build_s[2] = t.elapsed().as_secs_f64();
        let blocks = pmr.leaf_blocks().iter().map(|b| b.rect()).collect();
        let pmr: Box<dyn SpatialIndex> = Box::new(pmr);

        let index_bytes = rstar.size_bytes() + rplus.size_bytes() + pmr.size_bytes();
        let t = Instant::now();
        if store.exists() {
            std::fs::remove_dir_all(store)?;
        }
        let mut lives = Vec::with_capacity(3);
        for (name, mut index) in STRUCTURES.into_iter().zip([rstar, rplus, pmr]) {
            let dir = store.join(name);
            std::fs::create_dir_all(&dir)?;
            let base = FileStorage::create(&dir.join("ops.pages"), cfg.page_size)?;
            let log = FileLog::create(&dir.join("ops.wal"))?;
            let (durable, _report) = DurableMap::open(Box::new(base), Box::new(log))?;
            durable.replay_into(index.as_mut());
            lives.push(LiveIndex::new(index, durable));
        }
        times.live_open_s = t.elapsed().as_secs_f64();
        Ok(Stack {
            map,
            lives,
            blocks,
            index_bytes,
            times,
            store: store.to_path_buf(),
        })
    }

    /// The redo log file of map `map` (its size is the WAL's byte count).
    pub fn wal_path(&self, map: u32) -> PathBuf {
        self.store.join(STRUCTURES[map as usize]).join("ops.wal")
    }

    /// Hand the live indexes over (to a server catalog), keeping the map.
    pub fn take_lives(&mut self) -> Vec<LiveIndex> {
        std::mem::take(&mut self.lives)
    }
}
