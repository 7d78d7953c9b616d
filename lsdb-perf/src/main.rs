//! `lsdb-perf`: the lsdb benchmark, end to end and layer by layer.
//!
//! One run builds the three paper structures (R\*, R+, PMR) over one
//! synthetic Charles county with 1 KB pages and 16-page pools, serves
//! them as the three maps of one in-process `Catalog` over loopback,
//! drives one named workload against them from this process, and checks
//! every reply against an in-process replay on an identically built
//! stack. It prints each metric by name with its unit, a facts line, and
//! as its last line the result object:
//!
//! ```text
//! cargo run --release --manifest-path lsdb-perf/Cargo.toml -- \
//!     --workload point_wire --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with every other 250 ms slice traced and reports the
//! per-layer metrics, writing the spans to `out/spans-<workload>.tsv`.
//! `--segments N` shrinks the county (the tests use it); `--out DIR`
//! moves the scratch and span files; `--inject-mismatch K` corrupts the
//! reference answer of request `K` inside the checker, which must then
//! fail the run.
//!
//! The exit code is 0 only when every reply matched its reference and
//! the paper-counter fingerprint of the warm-up repeated; 2 means bad
//! arguments.

mod drive;
mod replay;
mod report;
mod setup;
mod stream;

use drive::{Driven, Phase, Record, TracePlan};
use lsdb_core::{IndexConfig, QueryStats};
use lsdb_server::{Catalog, CatalogStats, Client, Reply, Request, Server, ServerConfig};
use replay::{Gate, Measured};
use report::{mean, median, percentile, ratio, Metrics};
use setup::{SetupTimes, Stack, CHARLES_SEGMENTS, STRUCTURES};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{HotStream, Inputs, MAPS};

/// Set-ups per run: the first is served, the second is the checker's
/// reference, the third only times; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Reply-cache capacity on `hot_readwrite` (holds its whole read set).
const HOT_CACHE_BYTES: u64 = 4 << 20;

/// Length of the alternating untraced/traced slices of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(250);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    PointWire,
    PolygonWire,
    HotReadWrite,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PointWire,
        Workload::PolygonWire,
        Workload::HotReadWrite,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PointWire => "point_wire",
            Workload::PolygonWire => "polygon_wire",
            Workload::HotReadWrite => "hot_readwrite",
        }
    }

    /// Requests sent before timing starts; they fix the fingerprint.
    fn warm(self) -> u64 {
        match self {
            Workload::PointWire => 3000,
            Workload::PolygonWire => 300,
            Workload::HotReadWrite => 3000,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    segments: usize,
    out: PathBuf,
    inject: Option<usize>,
}

const USAGE: &str = "usage: lsdb-perf --workload point_wire|polygon_wire|hot_readwrite \
--seed N --seconds N --trace 0|1 [--segments N] [--out DIR] [--inject-mismatch K]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PointWire,
        seed: 0,
        seconds: 10,
        trace: false,
        segments: CHARLES_SEGMENTS,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        inject: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--segments" => args.segments = (num(&value)? as usize).max(200),
            "--out" => args.out = PathBuf::from(value),
            "--inject-mismatch" => args.inject = Some(num(&value)? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lsdb-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out.join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lsdb-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the wire phase of a run observed.
struct Served {
    driven: Driven,
    /// STATS v3 at the start and end of timing.
    before: CatalogStats,
    after: CatalogStats,
    /// Peak resident memory when timing started (set-up and warm-up).
    rss_mb: f64,
    lens_start: Vec<u64>,
    lens_end: Vec<u64>,
}

/// One whole run; `Ok(true)` when every check passed.
fn run(args: &Args, scratch: &Path) -> io::Result<bool> {
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = args.workload;
    let hot = workload == Workload::HotReadWrite;
    let cache_bytes = if hot { HOT_CACHE_BYTES } else { 0 };
    let conns = if hot { 1 } else { nproc };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stacks = Vec::with_capacity(SETUP_REPS);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let mut stack = Stack::build(args.segments, &scratch.join(format!("stack{rep}")))?;
        if rep == 0 {
            let mut catalog = Catalog::new(0, MAPS as usize);
            for (name, live) in STRUCTURES.into_iter().zip(stack.take_lives()) {
                catalog.add_live(name, live);
            }
            catalog.set_reply_cache_bytes(cache_bytes);
            let config = ServerConfig::builder()
                .workers(nproc)
                .read_timeout(Duration::from_millis(50))
                .build()?;
            server = Some(Server::bind_catalog("127.0.0.1:0", catalog, config)?);
        } else {
            // The same bind the served set-up pays, so every rep times
            // identical work.
            drop(TcpListener::bind("127.0.0.1:0")?);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        setup_times.push(stack.times);
        stacks.push(stack);
    }
    stacks.truncate(2);
    let (served, reference) = (&stacks[0], &stacks[1]);
    let server = server.expect("the first set-up binds the server");
    let addr = server.local_addr()?;
    let stop = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run());

    let plan = TracePlan {
        slice: args.trace.then_some(TRACE_SLICE),
    };
    let wire = drive_wire(args, served, addr, conns, plan, epoch);
    stop.shutdown();
    let server_report = serving.join().expect("server thread panicked");
    let Served {
        driven,
        before,
        after,
        rss_mb,
        lens_start,
        lens_end,
    } = wire?;
    server_report?;

    let gate = Gate {
        inject: args.inject,
    };
    let records = &driven.records;
    let measured = replay::replay(reference, records, nproc, args.trace, epoch, &gate);
    let failed = measured.iter().filter(|m| !m.ok).count() as u64;
    let attempted = records.len() as u64;

    let (warm_n, warm_sum) = replay::counter_sum(phase_replies(records, Phase::Warm));
    let fingerprint = format!(
        "{warm_n}:{}/{}/{}/{}/{}/{}",
        warm_sum.disk.reads,
        warm_sum.disk.writes,
        warm_sum.seg_comps,
        warm_sum.bbox_comps,
        warm_sum.seg_disk.reads,
        warm_sum.seg_disk.writes
    );
    let fp_status = check_fingerprint(&args.out, args, &fingerprint)?;
    let sizes_flat = !hot || lens_start == lens_end;
    if !sizes_flat {
        eprintln!("map sizes moved: {lens_start:?} -> {lens_end:?}");
    }
    let correct = failed == 0 && fp_status != "MISMATCH" && sizes_flat;

    let timed: Vec<(usize, &Record)> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.phase == Phase::Timed)
        .collect();
    let timed_s = (driven.timed_end - driven.timed_start) as f64 / 1e9;
    let reads_us: Vec<f64> = sorted(
        timed
            .iter()
            .filter(|(_, r)| !r.op.is_write())
            .map(|(_, r)| r.latency as f64 / 1e3),
    );
    let writes = write_latencies_us(records);
    let window_qps = window_qps(&timed, driven.timed_start, timed_s);

    let metrics = if args.trace {
        layer_metrics(&LayerInput {
            records,
            measured: &measured,
            timed: &timed,
            timed_s,
            before: &before,
            after: &after,
            setup: &setup_times,
            writes: &writes,
            qps: median(&window_qps),
            spans_path: &args.out.join(format!("spans-{}.tsv", workload.name())),
        })?
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_s), "s");
        m.push("read_p50_us", percentile(&reads_us, 0.5), "us");
        m.push(
            "index_bytes_per_seg",
            served.index_bytes as f64 / served.map.len() as f64,
            "B",
        );
        m.push("peak_rss_mb", rss_mb, "MB");
        m
    };

    let cfg = IndexConfig::default();
    let checkpoints = records
        .iter()
        .filter(|r| matches!(r.op.req, Request::Flush))
        .count();
    let facts: Vec<(&str, String)> = vec![
        ("workload", report::quote(workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        (
            "isa",
            report::quote(&format!("{:?}", lsdb_core::scan::active_isa())),
        ),
        ("git_rev", report::quote(&git_rev())),
        ("segments", served.map.len().to_string()),
        ("page_bytes", cfg.page_size.to_string()),
        ("pool_pages", cfg.pool_pages.to_string()),
        ("reply_cache_bytes", cache_bytes.to_string()),
        ("connections", conns.to_string()),
        ("server_workers", nproc.to_string()),
        ("setup_reps_s", format!("{setup_s:?}")),
        ("attempted", attempted.to_string()),
        ("succeeded", (attempted - failed).to_string()),
        ("failed", failed.to_string()),
        (
            "error_rate",
            report::number(ratio(failed as f64, attempted as f64)),
        ),
        ("timed_requests", timed.len().to_string()),
        ("timed_s", report::number(timed_s)),
        ("read_samples", reads_us.len().to_string()),
        ("write_samples", writes.len().to_string()),
        ("write_p50_us", report::number(percentile(&writes, 0.5))),
        ("write_p99_us", report::number(percentile(&writes, 0.99))),
        ("read_p99_us", report::number(percentile(&reads_us, 0.99))),
        ("checkpoints", checkpoints.to_string()),
        ("map_len_start", format!("{lens_start:?}")),
        ("map_len_end", format!("{lens_end:?}")),
        ("fingerprint", report::quote(&fingerprint)),
        ("fingerprint_check", report::quote(fp_status)),
        (
            "timed_counters",
            report::quote(&counters(timed.iter().map(|(_, r)| *r))),
        ),
        ("window_qps", format!("{window_qps:?}")),
    ];

    let mut out = io::stdout().lock();
    for m in &metrics.0 {
        writeln!(out, "{} = {} {}", m.name, report::number(m.value), m.unit)?;
    }
    writeln!(out, "{}", report::facts_line(&facts))?;
    writeln!(
        out,
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    )?;
    out.flush()?;
    Ok(correct)
}

/// Warm-up, timed phase, and tail of one run over the wire.
fn drive_wire(
    args: &Args,
    served: &Stack,
    addr: SocketAddr,
    conns: usize,
    plan: TracePlan,
    epoch: Instant,
) -> io::Result<Served> {
    let mut control = Client::connect(addr)?;
    let lens_start = map_lens(&mut control)?;
    let inputs = Inputs::new(served);
    let seconds = Duration::from_secs(args.seconds);
    let warm = args.workload.warm();
    let seed = args.seed;
    let mut before = None;
    let mut rss_mb = 0.0;
    let mut at_start = || -> io::Result<()> {
        before = Some(control.stats_v3()?);
        rss_mb = peak_rss_mb();
        Ok(())
    };
    let mut driven = match args.workload {
        Workload::PointWire => drive::run_shared(
            addr,
            conns,
            warm,
            seconds,
            plan,
            epoch,
            &|i| inputs.point(seed, i),
            &mut at_start,
        )?,
        Workload::PolygonWire => drive::run_shared(
            addr,
            conns,
            warm,
            seconds,
            plan,
            epoch,
            &|i| inputs.polygon(seed, i),
            &mut at_start,
        )?,
        Workload::HotReadWrite => {
            let mut stream = HotStream::new(&inputs, seed);
            drive::run_hot(addr, &mut stream, warm, seconds, plan, epoch, &mut at_start)?
        }
    };
    let before = before.expect("timing started");
    let after = control.stats_v3()?;
    if plan.slice.is_some() && !driven.records.iter().any(|r| r.op.is_write()) {
        driven
            .records
            .extend(drive::write_probe(addr, seed, epoch)?);
    }
    let lens_end = map_lens(&mut control)?;
    Ok(Served {
        driven,
        before,
        after,
        rss_mb,
        lens_start,
        lens_end,
    })
}

/// Indexed segments per map, in map-id order.
fn map_lens(control: &mut Client) -> io::Result<Vec<u64>> {
    STRUCTURES
        .iter()
        .map(|name| control.open_map(name).map(|(_, len)| len))
        .collect()
}

fn phase_replies(records: &[Record], phase: Phase) -> impl Iterator<Item = &Reply> {
    records
        .iter()
        .filter(move |r| r.phase == phase)
        .filter_map(|r| r.reply.as_ref().ok())
}

/// Summed paper counters of a set of records, as `n:disk/seg/bbox`.
fn counters<'a>(records: impl Iterator<Item = &'a Record>) -> String {
    let (n, s) = replay::counter_sum(records.filter_map(|r| r.reply.as_ref().ok()));
    format!("{n}:{}/{}/{}", s.disk.total(), s.seg_comps, s.bbox_comps)
}

/// Compare the warm-up fingerprint with the one an earlier run of the
/// same seed recorded (first run: record it).
fn check_fingerprint(out: &Path, args: &Args, fingerprint: &str) -> io::Result<&'static str> {
    std::fs::create_dir_all(out)?;
    let path = out.join(format!(
        "fingerprint-{}-seed{}-segs{}.txt",
        args.workload.name(),
        args.seed,
        args.segments
    ));
    match std::fs::read_to_string(&path) {
        Ok(old) if old.trim() == fingerprint => Ok("match"),
        Ok(old) => {
            eprintln!(
                "paper counters moved for seed {}: recorded {}, now {fingerprint}",
                args.seed,
                old.trim()
            );
            Ok("MISMATCH")
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            std::fs::write(&path, format!("{fingerprint}\n"))?;
            Ok("recorded")
        }
        Err(e) => Err(e),
    }
}

/// Requests completed in each whole second of the timed phase. The
/// median of these is the reported `request.qps`: a stall of the host
/// for a second or two moves it less than it moves the overall rate.
fn window_qps(timed: &[(usize, &Record)], timed_start: u64, timed_s: f64) -> Vec<f64> {
    let mut count = vec![0.0; (timed_s.floor() as usize).max(1)];
    for (_, r) in timed {
        let w = (r.start + r.latency).saturating_sub(timed_start) / 1_000_000_000;
        if let Some(c) = count.get_mut(w as usize) {
            *c += 1.0;
        }
    }
    count
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Wire latencies of the INSERTs and DELETEs: the timed ones when the
/// workload writes, else the write probe's.
fn write_latencies_us(records: &[Record]) -> Vec<f64> {
    let is_iud = |r: &&Record| matches!(r.op.req, Request::Insert(_) | Request::Delete { .. });
    let timed: Vec<f64> = records
        .iter()
        .filter(|r| r.phase == Phase::Timed)
        .filter(is_iud)
        .map(|r| r.latency as f64 / 1e3)
        .collect();
    if !timed.is_empty() {
        return sorted(timed.into_iter());
    }
    sorted(
        records
            .iter()
            .filter(|r| r.phase == Phase::Tail)
            .filter(is_iud)
            .map(|r| r.latency as f64 / 1e3),
    )
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the sources came from, read from `.git` without running
/// git; "unknown" outside a repository.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(name) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string()))
                .unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

/// Everything the per-layer split is computed from.
struct LayerInput<'a> {
    records: &'a [Record],
    measured: &'a [Measured],
    timed: &'a [(usize, &'a Record)],
    timed_s: f64,
    before: &'a CatalogStats,
    after: &'a CatalogStats,
    setup: &'a [SetupTimes],
    writes: &'a [f64],
    qps: f64,
    spans_path: &'a Path,
}

/// The per-layer metrics of a traced run, and its span file.
fn layer_metrics(input: &LayerInput) -> io::Result<Metrics> {
    let LayerInput {
        records,
        measured,
        timed,
        timed_s,
        before,
        after,
        setup,
        writes,
        qps,
        spans_path,
    } = *input;
    let mut m = Metrics::default();
    let med = |f: &dyn Fn(&SetupTimes) -> f64| median(&setup.iter().map(f).collect::<Vec<_>>());
    m.push("tiger.generate_s", med(&|t| t.generate_s), "s");
    for (k, name) in ["rtree", "rplus", "pmr"].into_iter().enumerate() {
        m.push(format!("{name}.build_s"), med(&|t| t.build_s[k]), "s");
    }
    m.push("live.open_s", med(&|t| t.live_open_s), "s");

    // Wire-side split of every traced request (timed slices and tail),
    // written out as spans. The client's stamps bound the round trip;
    // the children under it (server decode, engine or live layer, server
    // encode) are the replay's timings of the same work.
    std::fs::create_dir_all(spans_path.parent().unwrap_or(Path::new(".")))?;
    let mut spans = BufWriter::new(std::fs::File::create(spans_path)?);
    writeln!(spans, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut sdec = Vec::new();
    let mut senc = Vec::new();
    let mut rt = Vec::new();
    let mut hop = Vec::new();
    let (mut req_bytes, mut reply_bytes) = (Vec::new(), Vec::new());
    let mut overflowing = 0usize;
    for (pos, (rec, meas)) in records.iter().zip(measured).enumerate() {
        let (Some(w), Ok(_)) = (rec.spans, rec.reply.as_ref()) else {
            continue;
        };
        let end = rec.start + rec.latency;
        let rt_ns = w.roundtrip_end - w.encode_end;
        let children = meas.decode.ns + meas.exec.ns + meas.encode.ns;
        let exec_name = match rec.op.req {
            Request::Insert(_) => "live.insert",
            Request::Delete { .. } => "live.delete",
            Request::Flush => "live.checkpoint",
            _ => "engine.exec",
        };
        let child = |s: replay::Span| (s.start, s.start + s.ns);
        for (span, parent, name, (start, stop)) in [
            (0, None, "request", (rec.start, end)),
            (
                1,
                Some(0),
                "protocol.client_encode",
                (rec.start, w.encode_end),
            ),
            (
                2,
                Some(0),
                "serve.roundtrip",
                (w.encode_end, w.roundtrip_end),
            ),
            (3, Some(2), "protocol.server_decode", child(meas.decode)),
            (4, Some(2), exec_name, child(meas.exec)),
            (5, Some(2), "protocol.server_encode", child(meas.encode)),
            (6, Some(0), "protocol.client_decode", (w.roundtrip_end, end)),
        ] {
            let parent = parent.map_or("-".to_string(), |p: u32| p.to_string());
            writeln!(spans, "{pos}\t{span}\t{parent}\t{name}\t{start}\t{stop}")?;
        }
        if rec.phase != Phase::Timed || rec.op.is_write() {
            continue;
        }
        enc.push((w.encode_end - rec.start) as f64 / 1e3);
        dec.push((end - w.roundtrip_end) as f64 / 1e3);
        sdec.push(meas.decode.ns as f64 / 1e3);
        senc.push(meas.encode.ns as f64 / 1e3);
        rt.push(rt_ns as f64 / 1e3);
        hop.push((rt_ns as f64 - children as f64) / 1e3);
        overflowing += usize::from(children > rt_ns);
        req_bytes.push(w.request_bytes as f64);
        reply_bytes.push(w.reply_bytes as f64);
    }
    spans.flush()?;
    m.push("protocol.client_encode_us", median(&enc), "us");
    m.push("protocol.server_decode_us", median(&sdec), "us");
    m.push("protocol.server_encode_us", median(&senc), "us");
    m.push("protocol.client_decode_us", median(&dec), "us");
    m.push("protocol.request_bytes", mean(&req_bytes), "B");
    m.push("protocol.reply_bytes", mean(&reply_bytes), "B");
    m.push("serve.roundtrip_us", median(&rt), "us");
    m.push("serve.hop_us", median(&hop), "us");
    // Child spans come from timing the same work again in-process; how
    // often they outgrow the measured round trip bounds how far the
    // hop residual can be trusted.
    m.push(
        "trace.overflow_pct",
        100.0 * ratio(overflowing as f64, rt.len() as f64),
        "%",
    );

    // Engine layers, per structure, from the replay of every timed read.
    let reads: Vec<(&Record, &Measured)> = timed
        .iter()
        .filter(|(_, r)| !r.op.is_write())
        .map(|&(pos, r)| (r, &measured[pos]))
        .collect();
    let mut all = QueryStats::default();
    let (mut exec_total, mut latency_total) = (0u64, 0u64);
    for (map, name) in STRUCTURES.into_iter().enumerate() {
        let mine: Vec<_> = reads
            .iter()
            .filter(|(r, _)| r.op.map as usize == map)
            .collect();
        let n = mine.len() as f64;
        let mut sum = QueryStats::default();
        let mut exec = 0u64;
        for (r, meas) in &mine {
            if let Some(s) = r.reply.as_ref().ok().and_then(Reply::stats) {
                sum.add(s);
            }
            exec += meas.exec.ns;
            latency_total += r.latency;
        }
        all.add(sum);
        exec_total += exec;
        m.push(
            format!("engine.exec_us.{name}"),
            ratio(exec as f64 / 1e3, n),
            "us",
        );
        m.push(
            format!("scan.bbox_comps_per_query.{name}"),
            ratio(sum.bbox_comps as f64, n),
            "count",
        );
        m.push(
            format!("seg_table.seg_comps_per_query.{name}"),
            ratio(sum.seg_comps as f64, n),
            "count",
        );
        m.push(
            format!("pool.disk_reads_per_query.{name}"),
            ratio(sum.disk.reads as f64, n),
            "count",
        );
    }
    let n_reads = reads.len() as f64;
    m.push(
        "engine.exec_mean_us",
        ratio(exec_total as f64 / 1e3, n_reads),
        "us",
    );
    m.push(
        "request.read_mean_us",
        ratio(latency_total as f64 / 1e3, n_reads),
        "us",
    );
    let read_lat = sorted(reads.iter().map(|(r, _)| r.latency as f64 / 1e3));
    m.push("request.read_p50_us", percentile(&read_lat, 0.5), "us");
    m.push("request.read_p99_us", percentile(&read_lat, 0.99), "us");
    m.push("request.qps", qps, "1/s");
    m.push(
        "scan.ns_per_bbox_comp",
        ratio(exec_total as f64, all.bbox_comps as f64),
        "ns",
    );
    m.push(
        "seg_table.disk_reads_per_query",
        ratio(all.seg_disk.reads as f64, n_reads),
        "count",
    );

    // Pool and reply-cache counters over the timed phase, from STATS v3.
    let delta = |f: &dyn Fn(&lsdb_server::MapStatsWire) -> u64| -> f64 {
        let total = |s: &CatalogStats| s.maps.iter().map(f).sum::<u64>();
        total(after).saturating_sub(total(before)) as f64
    };
    let (hits, misses) = (delta(&|s| s.cache.hits), delta(&|s| s.cache.misses));
    m.push("pool.hit_rate", ratio(hits, hits + misses), "ratio");
    m.push("pool.evictions", delta(&|s| s.cache.evictions), "count");
    let (rc_hits, rc_misses) = (
        delta(&|s| s.reply_cache.hits),
        delta(&|s| s.reply_cache.misses),
    );
    m.push(
        "reply_cache.hit_rate",
        ratio(rc_hits, rc_hits + rc_misses),
        "ratio",
    );
    m.push("reply_cache.hits", rc_hits, "count");
    m.push("reply_cache.misses", rc_misses, "count");
    m.push(
        "reply_cache.invalidations",
        delta(&|s| s.reply_cache.invalidations),
        "count",
    );
    m.push(
        "reply_cache.evictions",
        delta(&|s| s.reply_cache.evictions),
        "count",
    );
    m.push(
        "reply_cache.rejections",
        delta(&|s| s.reply_cache.rejections),
        "count",
    );

    // The live layer and the WAL, from the replay of the writes.
    let of = |pick: fn(&Request) -> bool| -> Vec<&Measured> {
        records
            .iter()
            .zip(measured)
            .filter(|(r, _)| r.phase != Phase::Warm && pick(&r.op.req))
            .map(|(_, meas)| meas)
            .collect()
    };
    let inserts = of(|r| matches!(r, Request::Insert(_)));
    let deletes = of(|r| matches!(r, Request::Delete { .. }));
    let flushes = of(|r| matches!(r, Request::Flush));
    let us = |v: &[&Measured]| v.iter().map(|x| x.exec.ns as f64 / 1e3).collect::<Vec<_>>();
    m.push("live.insert_us", median(&us(&inserts)), "us");
    m.push("live.delete_us", median(&us(&deletes)), "us");
    m.push("live.checkpoint_ms", mean(&us(&flushes)) / 1e3, "ms");
    m.push("live.checkpoints", flushes.len() as f64, "count");
    let wal: Vec<f64> = inserts
        .iter()
        .chain(&deletes)
        .map(|x| x.wal_bytes as f64)
        .collect();
    m.push("wal.bytes_per_write", mean(&wal), "B");
    m.push("write_p50_us", percentile(writes, 0.5), "us");
    m.push("write_p99_us", percentile(writes, 0.99), "us");

    // Tracing's own cost: traced against untraced slices of the run.
    let slice = TRACE_SLICE.as_secs_f64();
    let mut secs = [0.0f64; 2];
    let mut k = 0usize;
    while (k as f64) * slice < timed_s {
        secs[k % 2] += ((k + 1) as f64 * slice).min(timed_s) - k as f64 * slice;
        k += 1;
    }
    let mode = |traced: bool| -> (f64, f64) {
        let mine: Vec<&Record> = timed
            .iter()
            .map(|(_, r)| *r)
            .filter(|r| r.spans.is_some() == traced)
            .collect();
        let p50 = percentile(
            &sorted(
                mine.iter()
                    .filter(|r| !r.op.is_write())
                    .map(|r| r.latency as f64),
            ),
            0.5,
        );
        (mine.len() as f64 / secs[traced as usize], p50)
    };
    let ((qps_off, p50_off), (qps_on, p50_on)) = (mode(false), mode(true));
    m.push(
        "trace.overhead_pct",
        100.0 * ratio(qps_off - qps_on, qps_off),
        "%",
    );
    m.push(
        "trace.p50_overhead_pct",
        100.0 * ratio(p50_on - p50_off, p50_off),
        "%",
    );
    Ok(m)
}
