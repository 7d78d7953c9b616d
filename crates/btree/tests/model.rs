//! Model-based tests: the disk B-tree must behave exactly like
//! `std::collections::BTreeSet<u64>` under arbitrary operation sequences,
//! across several page sizes (including degenerate 64-byte pages that force
//! deep trees) and a thrashing 2-frame buffer pool. Operation sequences are
//! drawn from fixed-seed [`lsdb_rng::StdRng`] streams, so every run checks
//! the same cases.

use lsdb_btree::BTree;
use lsdb_pager::{MemPool, PoolCtx};
use lsdb_rng::StdRng;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Range(u64, u64),
    First(u64, u64),
    Count(u64, u64),
}

/// Small key domain (0..512) so inserts and removes collide often.
fn gen_op(rng: &mut StdRng) -> Op {
    let key = |rng: &mut StdRng| rng.gen_range(0u64..512);
    let span = |rng: &mut StdRng| {
        let a = rng.gen_range(0u64..512);
        let b = rng.gen_range(0u64..512);
        (a.min(b), a.max(b))
    };
    match rng.gen_range(0u32..10) {
        0..=3 => Op::Insert(key(rng)),
        4..=5 => Op::Remove(key(rng)),
        6 => Op::Contains(key(rng)),
        7 => {
            let (lo, hi) = span(rng);
            Op::Range(lo, hi)
        }
        8 => {
            let (lo, hi) = span(rng);
            Op::First(lo, hi)
        }
        _ => {
            let (lo, hi) = span(rng);
            Op::Count(lo, hi)
        }
    }
}

fn run_model(page_size: usize, pool_pages: usize, ops: &[Op]) {
    let mut tree = BTree::new(MemPool::in_memory(page_size, pool_pages));
    let mut model: BTreeSet<u64> = BTreeSet::new();
    let mut ctx = PoolCtx::new();
    for op in ops {
        match *op {
            Op::Insert(k) => {
                assert_eq!(tree.insert(k), model.insert(k), "insert {k}");
            }
            Op::Remove(k) => {
                assert_eq!(tree.remove(k), model.remove(&k), "remove {k}");
            }
            Op::Contains(k) => {
                assert_eq!(tree.contains(k), model.contains(&k), "contains {k}");
                ctx.reset();
                assert_eq!(tree.contains_ctx(k, &mut ctx), model.contains(&k));
            }
            Op::Range(lo, hi) => {
                let got = tree.collect_range(lo, hi);
                let want: Vec<u64> = model.range(lo..=hi).copied().collect();
                assert_eq!(got, want, "range {lo}..={hi}");
                ctx.reset();
                assert_eq!(tree.collect_range_ctx(lo, hi, &mut ctx), want);
            }
            Op::First(lo, hi) => {
                let got = tree.first_in_range(lo, hi);
                let want = model.range(lo..=hi).next().copied();
                assert_eq!(got, want, "first {lo}..={hi}");
                let got_last = tree.last_in_range(lo, hi);
                let want_last = model.range(lo..=hi).next_back().copied();
                assert_eq!(got_last, want_last, "last {lo}..={hi}");
                ctx.reset();
                assert_eq!(tree.first_in_range_ctx(lo, hi, &mut ctx), want);
                assert_eq!(tree.last_in_range_ctx(lo, hi, &mut ctx), want_last);
            }
            Op::Count(lo, hi) => {
                let want = model.range(lo..=hi).count() as u64;
                assert_eq!(tree.count_range(lo, hi), want);
                ctx.reset();
                assert_eq!(tree.count_range_ctx(lo, hi, &mut ctx), want);
            }
        }
        assert_eq!(tree.len(), model.len() as u64);
    }
    tree.check_invariants();
    // Full contents agree at the end.
    assert_eq!(
        tree.collect_range(0, u64::MAX),
        model.iter().copied().collect::<Vec<_>>()
    );
}

fn run_cases(seed: u64, cases: usize, max_ops: usize, page_size: usize, pool_pages: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        let n = rng.gen_range(1usize..max_ops);
        let ops: Vec<Op> = (0..n).map(|_| gen_op(&mut rng)).collect();
        run_model(page_size, pool_pages, &ops);
    }
}

#[test]
fn matches_btreeset_tiny_pages() {
    run_cases(0xB7EE_0001, 64, 400, 64, 8);
}

#[test]
fn matches_btreeset_paper_pages() {
    run_cases(0xB7EE_0002, 64, 400, 1024, 16);
}

#[test]
fn matches_btreeset_thrashing_pool() {
    // A 2-frame pool: every structural operation spills; correctness must
    // not depend on residency.
    run_cases(0xB7EE_0003, 64, 250, 64, 2);
}

/// Compare the one-descent predecessor-bucket lookup with the two calls it
/// stands for, on a tree left by a random insert/delete run (deletes
/// leave stale separators behind). Each side runs on a fresh context: the
/// keys (and their order), the predecessor, the charged reads and the
/// pages touched must all agree, and match the model.
fn run_predecessor_bucket(seed: u64, page_size: usize, pool_pages: usize, domain: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = BTree::new(MemPool::in_memory(page_size, pool_pages));
    let mut model = BTreeSet::new();
    let ops = rng.gen_range(domain as usize / 2..domain as usize * 2);
    for _ in 0..ops {
        let k = rng.gen_range(0..domain);
        if rng.gen_range(0u32..3) == 0 {
            assert_eq!(tree.remove(k), model.remove(&k));
        } else {
            assert_eq!(tree.insert(k), model.insert(k));
        }
    }
    tree.check_invariants();
    for _ in 0..300 {
        // Buckets are aligned runs of 2^w keys, as the PMR quadtree's
        // blocks are runs of one locational code; some straddle leaves.
        let w = rng.gen_range(0u32..7);
        let bucket = |k: u64| (k >> w << w, k | ((1 << w) - 1));
        let hi = rng.gen_range(0..domain + 8);
        let lo = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0..=hi)
        };
        let mut fused = (Vec::new(), PoolCtx::new());
        let got = tree.scan_predecessor_bucket_ctx(lo, hi, bucket, &mut fused.1, &mut |k| {
            fused.0.push(k);
            ControlFlow::Continue(())
        });
        let mut split = (Vec::new(), PoolCtx::new());
        let want = tree.last_in_range_ctx(lo, hi, &mut split.1);
        if let Some(k) = want {
            let (blo, bhi) = bucket(k);
            let _ = tree.scan_range_ctx(blo, bhi, &mut split.1, &mut |k| {
                split.0.push(k);
                ControlFlow::Continue(())
            });
        }
        let label = format!("lo={lo} hi={hi} w={w}");
        assert_eq!(got, want, "predecessor, {label}");
        assert_eq!(want, model.range(lo..=hi).next_back().copied(), "{label}");
        assert_eq!(fused.0, split.0, "bucket keys, {label}");
        if let Some(k) = want {
            let (blo, bhi) = bucket(k);
            let expect: Vec<u64> = model.range(blo..=bhi).copied().collect();
            assert_eq!(fused.0, expect, "bucket vs model, {label}");
        }
        assert_eq!(fused.1.stats, split.1.stats, "charged reads, {label}");
        assert_eq!(
            fused.1.pages_touched(),
            split.1.pages_touched(),
            "pages touched, {label}"
        );
    }
}

#[test]
fn predecessor_bucket_equals_the_two_calls_tiny_pages() {
    for seed in 0..12 {
        run_predecessor_bucket(0xB7EE_0100 + seed, 64, 8, 600);
    }
}

#[test]
fn predecessor_bucket_equals_the_two_calls_paper_pages() {
    for seed in 0..6 {
        run_predecessor_bucket(0xB7EE_0200 + seed, 1024, 16, 6000);
    }
}

#[test]
fn predecessor_bucket_equals_the_two_calls_thrashing_pool() {
    for seed in 0..12 {
        run_predecessor_bucket(0xB7EE_0300 + seed, 64, 2, 600);
    }
}

#[test]
fn dense_then_sparse_deletion_pattern() {
    let mut tree = BTree::new(MemPool::in_memory(64, 4));
    let mut model = BTreeSet::new();
    for k in 0..2000u64 {
        tree.insert(k);
        model.insert(k);
    }
    // Delete every third key, then every remaining even key.
    for k in (0..2000u64).step_by(3) {
        assert_eq!(tree.remove(k), model.remove(&k));
    }
    for k in (0..2000u64).step_by(2) {
        assert_eq!(tree.remove(k), model.remove(&k));
    }
    tree.check_invariants();
    assert_eq!(
        tree.collect_range(0, u64::MAX),
        model.iter().copied().collect::<Vec<_>>()
    );
}

#[test]
fn file_backed_btree_persists_across_reopen() {
    use lsdb_pager::{BufferPool, FileStorage};
    let dir = std::env::temp_dir().join(format!("lsdb-btree-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.lsdb");
    {
        let storage = FileStorage::create(&path, 256).unwrap();
        let mut tree = BTree::new(BufferPool::new(storage, 8));
        for k in 0..500u64 {
            tree.insert(k * 3);
        }
        // Flush through into_pool.
        let _ = tree.into_pool().into_storage();
    }
    // Reopen the raw storage: the pages must be intact (full structural
    // reopen requires the superblock, exercised at the pager level).
    let storage = FileStorage::open(&path, 256).unwrap();
    use lsdb_pager::Storage;
    assert!(storage.num_pages() > 10, "a 500-key tree spans many pages");
    std::fs::remove_dir_all(&dir).ok();
}
