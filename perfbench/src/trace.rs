//! The traced run: each reader operation is decomposed into calls to the
//! layers' public functions, timed from here, and cross-checked against
//! the engine call it stands for. Storage counts per operation come from an
//! untraced, fixed-length stretch of the same stream, so they repeat
//! exactly for a single client. Nothing inside the engine changes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use umzi_core::{JobKind, RangeQuery, ReconcileStrategy};
use umzi_encoding::{hash_prefix, Datum};
use umzi_run::synopsis::encode_eq_values;
use umzi_run::{RunSearcher, SortBound};
use umzi_storage::StorageStats;
use umzi_wildfire::{Freshness, Result, Shard, WildfireEngine, WildfireError};

use crate::data::{Model, USER_ROW_BYTES};
use crate::measure::{Checker, OpCount, Report};
use crate::workloads::{
    exec, groomer, scan_bounds, stream_seed, with_writer, FreshStats, Op, OpStream, ProbePacer,
    ProbeQueue, ReadStats, Spec,
};

/// Every this many traced gets, the point lookup is also replayed run by
/// run through `RunSearcher::lookup`.
const RUN_SAMPLE_EVERY: u64 = 8;

/// Length of the write phase of the traced run, where it follows the reads.
const TRACE_WRITE: Duration = Duration::from_secs(2);

/// Interval between samples of the index and live-zone shape.
const SHAPE_EVERY: Duration = Duration::from_millis(5);

/// Time spent in each layer's functions, summed over the traced operations.
#[derive(Debug, Default)]
struct Layers {
    gets: u64,
    scans: u64,
    point_lookup: Duration,
    range_scan: Duration,
    fetch_rows: u64,
    fetch_row: Duration,
    candidate_runs: u64,
    run_lookups: u64,
    run_hits: u64,
    run_lookup: Duration,
}

/// The shard owning the given index values.
fn shard_of<'e>(engine: &'e WildfireEngine, eq: &[Datum], sort: &[Datum]) -> &'e Arc<Shard> {
    let table = engine.table();
    let vals = table
        .sharding_values_from_index(eq, sort)
        .expect("the iot table shards by its equality column");
    &engine.shards()[table.shard_of_sharding_values(&vals, engine.shards().len())]
}

/// Retry `op` while it hits a RID that an evolve retired between the index
/// snapshot and the row fetch, as `WildfireEngine` does internally.
fn retry_dangling<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    for _ in 0..7 {
        match op() {
            Err(WildfireError::DanglingRid(_)) => continue,
            other => return other,
        }
    }
    op()
}

/// `get` as `point_lookup` + `fetch_row`, optionally replaying the lookup
/// run by run.
fn traced_get(
    engine: &WildfireEngine,
    model: &Model,
    key: u64,
    l: &mut Layers,
    replay: bool,
    ck: &Checker,
) -> Result<()> {
    let (eq, sort) = model.space.probe(key);
    let shard = shard_of(engine, &eq, &sort);
    let index = shard.index();
    let (row, begin_ts) = retry_dangling(|| {
        let ts = engine.read_ts();
        let t = Instant::now();
        let out = index.point_lookup(&eq, &sort, ts)?;
        l.point_lookup += t.elapsed();
        let Some(out) = out else {
            return Ok((None, 0));
        };
        if replay {
            replay_runs(shard, &eq, &sort, ts, &out, l, ck)?;
        }
        let rid = out.rid()?;
        let t = Instant::now();
        let (row, begin_ts, _, _) = shard.fetch_row(rid)?;
        l.fetch_row += t.elapsed();
        l.fetch_rows += 1;
        Ok((Some(row), begin_ts))
    })?;
    l.gets += 1;
    l.candidate_runs += index.candidate_runs().len() as u64;
    let Some(row) = row else {
        ck.wrong(format!(
            "point_lookup({key}) found nothing; the key was acked"
        ));
        return Ok(());
    };
    let view = engine.get(&eq, &sort, Freshness::Latest)?;
    ck.check(model.check_get(key, view.as_ref()));
    if view.as_ref().map(|v| (&v.row, v.begin_ts)) != Some((&row, Some(begin_ts))) {
        ck.wrong(format!(
            "point_lookup + fetch_row of {key} gave {row:?} at {begin_ts}, get gave {view:?}"
        ));
    }
    Ok(())
}

/// Replay a point lookup the way `UmziIndex::point_lookup` searches:
/// candidate runs newest first, synopsis-pruned, stopping at the first
/// run holding the key. The hit must be the one `point_lookup` returned.
fn replay_runs(
    shard: &Shard,
    eq: &[Datum],
    sort: &[Datum],
    ts: u64,
    want: &umzi_core::QueryOutput,
    l: &mut Layers,
    ck: &Checker,
) -> Result<()> {
    let index = shard.index();
    let full = index.layout().build_key(eq, sort, 0)?;
    let prefix = &full[..full.len() - 8];
    let hash = if index.def().has_hash() {
        Some(index.layout().hash_equality(eq)?)
    } else {
        None
    };
    let eq_encoded = encode_eq_values(eq);
    let bound = SortBound::Included(sort.to_vec());
    for run in index.candidate_runs() {
        let header = run.header();
        if !header.synopsis.may_match(&eq_encoded, &bound, &bound, ts) {
            continue;
        }
        let bucket = match (hash, header.offset_bits) {
            (Some(h), bits) if bits > 0 => Some(hash_prefix(h, bits)),
            _ => None,
        };
        let t = Instant::now();
        let hit = RunSearcher::new(&run).lookup(prefix, bucket, ts)?;
        l.run_lookup += t.elapsed();
        l.run_lookups += 1;
        if let Some(hit) = hit {
            l.run_hits += 1;
            if hit.key != want.key || hit.begin_ts != want.begin_ts {
                ck.wrong(format!(
                    "run-by-run lookup found version {} where point_lookup found {}",
                    hit.begin_ts, want.begin_ts
                ));
            }
            return Ok(());
        }
    }
    ck.wrong("run-by-run lookup found nothing where point_lookup found a row".into());
    Ok(())
}

/// `scan_records` as `range_scan` + one `fetch_row` per RID.
fn traced_scan(
    engine: &WildfireEngine,
    model: &Model,
    device: u64,
    lo: u64,
    len: u64,
    l: &mut Layers,
    ck: &Checker,
) -> Result<()> {
    let (eq, lower, upper) = scan_bounds(device, lo, len);
    let shard = shard_of(engine, &eq, &[]);
    let rows = retry_dangling(|| {
        let query = RangeQuery {
            equality: eq.clone(),
            lower: lower.clone(),
            upper: upper.clone(),
            query_ts: engine.read_ts(),
        };
        let t = Instant::now();
        let outs = shard
            .index()
            .range_scan(&query, ReconcileStrategy::PriorityQueue)?;
        l.range_scan += t.elapsed();
        let mut rows = Vec::with_capacity(outs.len());
        for out in &outs {
            let rid = out.rid()?;
            let t = Instant::now();
            let (row, begin_ts, _, _) = shard.fetch_row(rid)?;
            l.fetch_row += t.elapsed();
            l.fetch_rows += 1;
            rows.push((row, begin_ts));
        }
        Ok(rows)
    })?;
    l.scans += 1;
    l.candidate_runs += shard.index().candidate_runs().len() as u64;
    let got: Vec<&[Datum]> = rows.iter().map(|(r, _)| r.as_slice()).collect();
    ck.check(model.check_rows(device, lo, len, &got));
    let views = engine.scan_records(eq, lower, upper, Freshness::Latest)?;
    let same = views.len() == rows.len()
        && views
            .iter()
            .zip(&rows)
            .all(|(v, (row, ts))| &v.row == row && v.begin_ts == Some(*ts));
    if !same {
        ck.wrong(format!(
            "range_scan + fetch_row of device {device} msgs {lo}..{} differs from scan_records",
            lo + len
        ));
    }
    Ok(())
}

/// Index and live-zone shape, sampled over the traced run.
#[derive(Debug, Default)]
struct Shape {
    samples: u64,
    runs_per_shard_sum: f64,
    l0_peak: usize,
    backlog_peak: usize,
}

fn sample_shape(
    engine: Arc<WildfireEngine>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Shape> {
    std::thread::spawn(move || {
        let mut s = Shape::default();
        loop {
            let shards = engine.shards();
            let runs: usize = shards.iter().map(|sh| sh.index().run_count()).sum();
            s.runs_per_shard_sum += runs as f64 / shards.len() as f64;
            s.samples += 1;
            for sh in shards {
                s.l0_peak = s.l0_peak.max(sh.index().level0_run_count());
                s.backlog_peak = s.backlog_peak.max(sh.live().len());
            }
            if stop.load(Ordering::SeqCst) {
                return s;
            }
            std::thread::sleep(SHAPE_EVERY);
        }
    })
}

/// The reads of the traced run: `spec.counted_ops` untraced operations
/// between two storage-counter snapshots, then `spec.traced_ops`
/// decomposed ones.
struct Reads {
    counted: ReadStats,
    counted_wall: Duration,
    before: StorageStats,
    after: StorageStats,
    layers: Layers,
    traced_wall: Duration,
    ops: OpCount,
}

fn read_phases(
    engine: &WildfireEngine,
    model: &Model,
    stream: &mut OpStream,
    spec: &Spec,
    ck: &Checker,
    mut probes: Option<(&ProbeQueue, &mut FreshStats)>,
) -> Reads {
    let mut pacer = ProbePacer::new();
    let mut maybe_probe = |probes: &mut Option<(&ProbeQueue, &mut FreshStats)>| {
        if let Some((q, fs)) = probes {
            pacer.tick(engine, model.space, q, fs, ck);
        }
    };
    let mut counted = ReadStats::default();
    let before = engine.storage().stats();
    let t0 = Instant::now();
    for _ in 0..spec.counted_ops {
        if ck.failed() {
            break;
        }
        maybe_probe(&mut probes);
        exec(engine, model, stream.next_op(), &mut counted, ck);
    }
    let counted_wall = t0.elapsed();
    let after = engine.storage().stats();

    let mut layers = Layers::default();
    let mut ops = OpCount::default();
    let t0 = Instant::now();
    for _ in 0..spec.traced_ops {
        if ck.failed() {
            break;
        }
        maybe_probe(&mut probes);
        let r = match stream.next_op() {
            Op::Get(key) => {
                let replay = layers.gets % RUN_SAMPLE_EVERY == 0;
                traced_get(engine, model, key, &mut layers, replay, ck)
            }
            Op::Scan { device, lo, len } => {
                traced_scan(engine, model, device, lo, len, &mut layers, ck)
            }
        };
        ops.note(r);
    }
    Reads {
        counted,
        counted_wall,
        before,
        after,
        layers,
        traced_wall: t0.elapsed(),
        ops,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_us(total: Duration, n: u64) -> f64 {
    ratio(total.as_secs_f64() * 1e6, n as f64)
}

/// Run `spec` traced and report every per-layer metric.
pub fn run(spec: &Spec, seed: u64, ck: &Checker) -> Result<Report> {
    let mut report = Report::default();
    let mut rig = (spec.setup)(seed)?;
    let retries0 = rig.engine.storage().stats().retries;
    let stop = Arc::new(AtomicBool::new(false));
    let shape = sample_shape(Arc::clone(&rig.engine), Arc::clone(&stop));
    let mut stream = OpStream::new(
        stream_seed(seed, 1),
        (spec.keys)(&rig.model),
        spec.mix,
        &rig.model,
    );
    let plan = rig.write_plan(spec.rows_per_s, spec.batch, stream_seed(seed, 2));
    let daemons = rig.daemons.take();
    let (engine, model) = (&rig.engine, &rig.model);
    let mut run = if spec.concurrent {
        with_writer(engine, daemons, &plan, ck, &mut report.ops, |q, fs| {
            read_phases(engine, model, &mut stream, spec, ck, Some((q, fs)))
        })?
    } else {
        let reads = read_phases(engine, model, &mut stream, spec, ck, None);
        with_writer(engine, daemons, &plan, ck, &mut report.ops, |q, fs| {
            groomer(engine, model.space, TRACE_WRITE, ck)(q, fs);
            reads
        })?
    };
    let reads = &run.main;
    stop.store(true, Ordering::SeqCst);
    let shape = shape.join().expect("shape sampler panicked");
    report.ops.add(reads.counted.ops);
    report.ops.add(reads.ops);
    let recover = match rig.recover {
        Some(d) => d,
        None => rig.time_recover()?,
    };
    let retries = rig.engine.storage().stats().retries - retries0;

    let (b, a, l) = (&reads.before, &reads.after, &reads.layers);
    let n = (reads.counted.get.len() + reads.counted.scan.len()) as f64;
    let d = |f: fn(&StorageStats) -> u64| (f(a) - f(b)) as f64;
    let r = &mut report;
    r.metric(
        "wildfire.engine.get_us",
        mean_us(reads.counted.get.sum(), reads.counted.get.len() as u64),
        "us",
    );
    r.metric(
        "wildfire.engine.scan_records_us",
        mean_us(reads.counted.scan.sum(), reads.counted.scan.len() as u64),
        "us",
    );
    r.metric(
        "core.query.point_lookup_us",
        mean_us(l.point_lookup, l.gets),
        "us",
    );
    r.metric(
        "core.query.candidate_runs",
        ratio(l.candidate_runs as f64, (l.gets + l.scans) as f64),
        "count",
    );
    r.metric(
        "core.query.range_scan_us",
        mean_us(l.range_scan, l.scans),
        "us",
    );
    r.metric(
        "run.search.lookup_us",
        mean_us(l.run_lookup, l.run_lookups),
        "us",
    );
    r.metric(
        "run.search.hit_ratio",
        ratio(l.run_hits as f64, l.run_lookups as f64),
        "share",
    );
    r.metric(
        "wildfire.shard.fetch_row_us",
        mean_us(l.fetch_row, l.fetch_rows),
        "us",
    );
    r.metric(
        "storage.tiered.chunk_reads_per_op",
        ratio(d(|s| s.chunk_reads), n),
        "count",
    );
    r.metric(
        "storage.tiered.mem_hit_ratio",
        ratio(d(|s| s.mem.hits), d(|s| s.mem.hits + s.mem.misses)),
        "share",
    );
    r.metric(
        "storage.tiered.ssd_hit_ratio",
        ratio(d(|s| s.ssd.hits), d(|s| s.ssd.hits + s.ssd.misses)),
        "share",
    );
    r.metric(
        "storage.tiered.ssd_charged_us_per_op",
        ratio(
            (a.ssd_charged_latency - b.ssd_charged_latency).as_secs_f64() * 1e6,
            n,
        ),
        "us",
    );
    r.metric(
        "storage.shared.charged_us_per_op",
        ratio(
            (a.shared.charged_latency - b.shared.charged_latency).as_secs_f64() * 1e6,
            n,
        ),
        "us",
    );
    r.metric(
        "storage.shared.reads_per_op",
        ratio(d(|s| s.shared.reads), n),
        "count",
    );
    r.metric(
        "storage.shared.bytes_read_per_op",
        ratio(d(|s| s.shared.bytes_read), n),
        "B",
    );
    r.metric(
        "storage.tiered.prefetch_hit_ratio",
        ratio(d(|s| s.prefetch_hits), d(|s| s.blocks_prefetched)),
        "share",
    );
    r.metric(
        "storage.tiered.prefetch_wasted",
        d(|s| s.prefetch_wasted),
        "count",
    );
    r.metric("storage.tiered.retries", retries as f64, "count");
    r.metric(
        "storage.block_cache.point_hit_ratio",
        ratio(
            d(|s| s.decoded.point.hits),
            d(|s| s.decoded.point.hits + s.decoded.point.misses),
        ),
        "share",
    );
    r.metric(
        "storage.block_cache.scan_hit_ratio",
        ratio(
            d(|s| s.decoded.scan.hits),
            d(|s| s.decoded.scan.hits + s.decoded.scan.misses),
        ),
        "share",
    );
    r.metric(
        "storage.block_cache.evictions_per_op",
        ratio(d(|s| s.decoded.evictions), n),
        "count",
    );

    let wall = run.wall.as_secs_f64();
    let daemon = run.daemon.clone().unwrap_or_default();
    let busy = |k: JobKind| daemon.kind(k).busy_nanos as f64 / 1e6 / wall;
    r.metric(
        "core.daemon.groom.busy_ms_per_s",
        busy(JobKind::Groom),
        "ms/s",
    );
    r.metric(
        "core.daemon.merge.busy_ms_per_s",
        busy(JobKind::Merge),
        "ms/s",
    );
    r.metric(
        "core.daemon.evolve.busy_ms_per_s",
        busy(JobKind::Evolve),
        "ms/s",
    );
    r.metric(
        "core.daemon.janitor.busy_ms_per_s",
        busy(JobKind::RetireDeprecatedBlocks),
        "ms/s",
    );
    r.metric(
        "core.daemon.backpressure_stall_ms",
        daemon.backpressure.stall_nanos as f64 / 1e6,
        "ms",
    );
    r.metric(
        "core.daemon.peak_queue_depth",
        daemon.peak_queue_depth as f64,
        "count",
    );
    let user_written = (run.write.rows * USER_ROW_BYTES) as f64;
    r.metric(
        "storage.shared.bytes_written_per_user_byte",
        ratio(run.shared_written as f64, user_written),
        "ratio",
    );
    let live_keys = model.keys() + run.write.latest.len() as u64;
    r.metric(
        "storage.shared.bytes_stored_per_user_byte",
        ratio(
            rig.store.total_bytes() as f64,
            (live_keys * USER_ROW_BYTES) as f64,
        ),
        "ratio",
    );
    r.metric(
        "core.index.run_count_mean",
        ratio(shape.runs_per_shard_sum, shape.samples as f64),
        "count",
    );
    r.metric("core.index.level0_runs_peak", shape.l0_peak as f64, "count");
    r.metric(
        "wildfire.livezone.backlog_rows_peak",
        shape.backlog_peak as f64,
        "count",
    );
    r.metric(
        "core.recovery.recover_ms",
        recover.as_secs_f64() * 1e3,
        "ms",
    );
    let traced_per_op = ratio(reads.traced_wall.as_secs_f64(), reads.ops.attempted as f64);
    let counted_per_op = ratio(reads.counted_wall.as_secs_f64(), n);
    r.metric(
        "bench.trace_overhead_ratio",
        ratio(traced_per_op, counted_per_op),
        "ratio",
    );
    r.metric(
        "bench.generator_lag_p99_ms",
        run.write.lag.quantile(0.99) / 1e6,
        "ms",
    );
    r.metric("bench.counted_ops", n, "count");
    r.note(format!(
        "counted ops {n} (gets {}, scans {}); traced ops {} (gets {}, scans {}, run-by-run replays {}); write batches {}",
        reads.counted.get.len(),
        reads.counted.scan.len(),
        reads.ops.attempted,
        l.gets,
        l.scans,
        l.run_lookups,
        run.write.ack.len()
    ));
    Ok(report)
}
