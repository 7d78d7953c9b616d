//! Request streams: every workload's inputs, derived from the run seed.
//!
//! The two read-only workloads draw request `i` from its own generator
//! seeded by `(seed, i)`, so any number of connections can pull indices
//! from one shared counter and every request is used exactly once while
//! the set of requests sent stays a pure function of the seed. The mixed
//! workload is one sequential stream (a single connection), because a
//! `DELETE` names the id an earlier `INSERT` was answered with.

use crate::setup::Stack;
use lsdb_core::SegId;
use lsdb_geom::{Point, Rect, Segment, WORLD_SIZE};
use lsdb_rng::StdRng;
use lsdb_server::Request;
use std::collections::VecDeque;

/// Number of catalog maps (R*, R+, PMR), in map-id order.
pub const MAPS: u32 = 3;

/// Side of a Range window covering 0.01% of the 16K world (the paper's
/// window size).
const WINDOW_SIDE: i32 = 164;

/// Distinct reads per map in `hot_readwrite`.
pub const HOT_KEYS: usize = 512;

/// Share of `hot_readwrite` operations that are writes.
const WRITE_SHARE: f64 = 0.05;

/// Inserted segments a map may hold before the next write to it is the
/// `DELETE` of the oldest, which keeps every map's size within a few
/// segments of where it started.
const OUTSTANDING: usize = 4;

/// One `FLUSH` (checkpoint) every this many `hot_readwrite` operations.
pub const FLUSH_EVERY: u64 = 1000;

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the load generator sends: a request routed to one catalog map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub map: u32,
    pub req: Request,
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(
            self.req,
            Request::Insert(_) | Request::Delete { .. } | Request::Flush
        )
    }
}

/// The query-side inputs every generator samples from.
pub struct Inputs<'a> {
    stack: &'a Stack,
    max_steps: u32,
}

impl<'a> Inputs<'a> {
    pub fn new(stack: &'a Stack) -> Inputs<'a> {
        // The workbench's polygon step cap: long outer faces stop here.
        let max_steps = (stack.map.len() * 2).clamp(1000, 6000) as u32;
        Inputs { stack, max_steps }
    }

    fn uniform(rng: &mut StdRng) -> Point {
        Point::new(rng.gen_range(0..WORLD_SIZE), rng.gen_range(0..WORLD_SIZE))
    }

    /// 2-stage point: a PMR leaf block chosen by count, then a uniform
    /// point inside it.
    fn two_stage(&self, rng: &mut StdRng) -> Point {
        let blocks = &self.stack.blocks;
        let b = blocks[rng.gen_range(0..blocks.len())];
        Point::new(
            rng.gen_range(b.min.x..=b.max.x),
            rng.gen_range(b.min.y..=b.max.y),
        )
    }

    /// A random segment endpoint, as Point1/Point2 take.
    fn endpoint(&self, rng: &mut StdRng) -> (SegId, Point) {
        let segs = &self.stack.map.segments;
        let i = rng.gen_range(0..segs.len());
        let p = if rng.gen_bool(0.5) {
            segs[i].a
        } else {
            segs[i].b
        };
        (SegId(i as u32), p)
    }

    fn window(rng: &mut StdRng) -> Rect {
        let x = rng.gen_range(0..=WORLD_SIZE - WINDOW_SIDE);
        let y = rng.gen_range(0..=WORLD_SIZE - WINDOW_SIDE);
        Rect::new(x, y, x + WINDOW_SIDE - 1, y + WINDOW_SIDE - 1)
    }

    /// One cheap query (Point1, Point2, Nearest 1-stage, Range) of kind
    /// `kind % 4`.
    fn cheap(&self, kind: u64, rng: &mut StdRng) -> Request {
        match kind % 4 {
            0 => Request::Incident(self.endpoint(rng).1),
            1 => {
                let (id, at) = self.endpoint(rng);
                Request::Second { id, at }
            }
            2 => Request::Nearest(Self::uniform(rng)),
            _ => Request::Window(Self::window(rng)),
        }
    }

    /// `point_wire` request `i`: maps round-robin, the four cheap query
    /// kinds interleaved.
    pub fn point(&self, seed: u64, i: u64) -> Op {
        let mut rng = StdRng::seed_from_u64(mix(seed, i));
        Op {
            map: (i % MAPS as u64) as u32,
            req: self.cheap(i / MAPS as u64, &mut rng),
        }
    }

    /// `polygon_wire` request `i`: maps round-robin, 1-stage and 2-stage
    /// polygon walks alternating, each under the workbench step cap.
    pub fn polygon(&self, seed: u64, i: u64) -> Op {
        let mut rng = StdRng::seed_from_u64(mix(seed, i));
        let at = if (i / MAPS as u64).is_multiple_of(2) {
            Self::uniform(&mut rng)
        } else {
            self.two_stage(&mut rng)
        };
        Op {
            map: (i % MAPS as u64) as u32,
            req: Request::Polygon {
                at,
                max_steps: self.max_steps,
            },
        }
    }
}

/// Zipf(θ = 1) sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `hot_readwrite` operation stream: Zipf reads over a fixed set of
/// cheap requests per map, 5% writes that insert short segments and
/// later delete them, and a periodic checkpoint.
pub struct HotStream {
    keys: Vec<Vec<Request>>,
    zipf: Zipf,
    rng: StdRng,
    /// Ids inserted over the wire and not yet deleted, per map, oldest
    /// first.
    outstanding: Vec<VecDeque<SegId>>,
    /// An `INSERT` was sent and its id is not known yet.
    awaiting: Option<u32>,
    issued: u64,
}

impl HotStream {
    pub fn new(inputs: &Inputs, seed: u64) -> HotStream {
        let keys = (0..MAPS as u64)
            .map(|m| {
                (0..HOT_KEYS as u64)
                    .map(|k| {
                        let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x4057, m << 32 | k));
                        inputs.cheap(k, &mut rng)
                    })
                    .collect()
            })
            .collect();
        HotStream {
            keys,
            zipf: Zipf::new(HOT_KEYS),
            rng: StdRng::seed_from_u64(mix(seed, 0x4057_4057)),
            outstanding: vec![VecDeque::new(); MAPS as usize],
            awaiting: None,
            issued: 0,
        }
    }

    /// The next operation. An `INSERT` must be answered through
    /// [`HotStream::inserted`] before the next call.
    pub fn next_op(&mut self) -> Op {
        debug_assert!(self.awaiting.is_none(), "insert reply not recorded");
        self.issued += 1;
        if self.issued.is_multiple_of(FLUSH_EVERY) {
            let map = ((self.issued / FLUSH_EVERY) % MAPS as u64) as u32;
            return Op {
                map,
                req: Request::Flush,
            };
        }
        let map = self.rng.gen_range(0..MAPS);
        if self.rng.gen_bool(WRITE_SHARE) {
            let queue = &mut self.outstanding[map as usize];
            if queue.len() >= OUTSTANDING {
                let id = queue.pop_front().expect("queue is non-empty");
                return Op {
                    map,
                    req: Request::Delete { id },
                };
            }
            self.awaiting = Some(map);
            return Op {
                map,
                req: Request::Insert(self.short_segment()),
            };
        }
        let rank = self.zipf.sample(&mut self.rng);
        Op {
            map,
            req: self.keys[map as usize][rank].clone(),
        }
    }

    /// Record the id the server assigned to the last `INSERT`.
    pub fn inserted(&mut self, id: SegId) {
        let map = self.awaiting.take().expect("an insert was sent");
        self.outstanding[map as usize].push_back(id);
    }

    /// The last `INSERT` failed: nothing to delete later.
    pub fn insert_failed(&mut self) {
        self.awaiting = None;
    }

    /// `DELETE`s for every segment still outstanding, so each map ends
    /// at the size it started with.
    pub fn drain(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (map, queue) in self.outstanding.iter_mut().enumerate() {
            ops.extend(queue.drain(..).map(|id| Op {
                map: map as u32,
                req: Request::Delete { id },
            }));
        }
        ops
    }

    fn short_segment(&mut self) -> Segment {
        short_segment(&mut self.rng)
    }
}

/// A short segment strictly inside the world, as a client adding a road
/// piece would send.
fn short_segment(rng: &mut StdRng) -> Segment {
    let a = Point::new(
        rng.gen_range(0..WORLD_SIZE - 17),
        rng.gen_range(0..WORLD_SIZE - 17),
    );
    let b = Point::new(a.x + rng.gen_range(1..=16), a.y + rng.gen_range(1..=16));
    Segment { a, b }
}

/// Segment `k` of the write probe a traced run of a read-only workload
/// sends after its timed phase (see `drive::write_probe`).
pub fn probe_segment(seed: u64, k: u64) -> Segment {
    short_segment(&mut StdRng::seed_from_u64(mix(seed ^ 0x9E0B, k)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(HOT_KEYS);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; HOT_KEYS];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[0] > 2_000, "rank 0 draws about 15% at n = 512");
    }

    #[test]
    fn mix_separates_neighbouring_indices() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
