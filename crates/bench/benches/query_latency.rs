//! Read-path query micro-benchmark: point lookup, range scan and batch
//! lookup at three run-count settings, a before/after comparison of the
//! run-search hot path (pre-change: per-entry binary search with no
//! decoded-block cache; post-change: fence index + decoded-block cache),
//! and a `parallel_reconcile` group comparing the sequential k-way merge
//! against the partitioned parallel merge (1 vs N threads at a fixed run
//! count) on a large scan over sleep-mode SSD latency.
//!
//! Emits `BENCH_query.json` (override the path with `UMZI_BENCH_QUERY_OUT`)
//! with ops/sec and blocks-read-per-op so successive PRs can track the
//! read-path trajectory.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use umzi_bench::{bench_index, ingest_runs, point_groups, scan_groups, POINT_SPAN};
use umzi_core::{MergePolicy, RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::Datum;
use umzi_run::{RunSearcher, SortBound};
use umzi_storage::{
    CachePolicy, DecodedCacheConfig, InMemoryObjectStore, LatencyMode, LatencyModel,
    PrefetchConfig, SharedStorage, TierLatency, TieredConfig, TieredStorage,
};
use umzi_workload::IndexPreset;

const PER_RUN: u64 = 20_000;
const RUN_COUNTS: [usize; 3] = [1, 8, 32];
/// Runs in the parallel-reconcile comparison (fixed; only the thread count
/// varies between the two legs).
const PAR_RUNS: usize = 6;
/// Partition count of the parallel leg.
const PAR_THREADS: usize = 4;

struct Measurement {
    workload: &'static str,
    runs: usize,
    ops: u64,
    secs: f64,
    blocks_per_op: f64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs
        } else {
            f64::INFINITY
        }
    }
}

/// Time `ops` executions of `f` against `idx`, reading the storage block
/// counter around the loop.
fn measure(
    workload: &'static str,
    runs: usize,
    idx: &UmziIndex,
    ops: u64,
    mut f: impl FnMut(u64),
) -> Measurement {
    f(0); // warm-up op, uncounted
    let blocks_before = idx.storage().stats().chunk_reads;
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let secs = t0.elapsed().as_secs_f64();
    let blocks = idx.storage().stats().chunk_reads - blocks_before;
    Measurement {
        workload,
        runs,
        ops,
        secs,
        blocks_per_op: blocks as f64 / ops as f64,
    }
}

/// An index whose storage matches the pre-change world: no decoded-block
/// cache, so every block touch is a chunk read.
fn index_without_decoded_cache(name: &str) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 8 << 30,
            ssd_capacity: 64 << 30,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: 0,
                ..DecodedCacheConfig::default()
            },
            ..TieredConfig::default()
        },
    ));
    let mut config = UmziConfig::two_zone(name);
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    UmziIndex::create(storage, IndexPreset::I1.def(), config).expect("create index")
}

/// An index over storage that behaves like a cold SSD: sleep-mode latency
/// per chunk read, a memory tier too small to hold the scan working set,
/// and no decoded-block cache — the regime where a large scan is dominated
/// by block waits and the partitioned merge can overlap them.
fn index_with_scan_partitions(name: &str, partitions: usize) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 128 << 10,
            ssd_capacity: 64 << 30,
            ssd_latency: TierLatency::micros(100, 0),
            latency_mode: LatencyMode::Sleep,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: 0,
                ..DecodedCacheConfig::default()
            },
            ..TieredConfig::default()
        },
    ));
    let mut config = UmziConfig::two_zone(name);
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    config.scan.max_scan_partitions = partitions;
    config.scan.parallel_row_threshold = 1;
    UmziIndex::create(storage, IndexPreset::I1.def(), config).expect("create index")
}

/// An index whose reads come off a slow *shared* tier: sleep-mode latency
/// per shared GET (charged once per batched multi-range fetch), no decoded
/// cache — the cold-scan regime where pipelined readahead amortises the
/// per-request wait across a whole batch of blocks.
fn index_with_prefetch(name: &str, depth: usize) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::new(
            Arc::new(InMemoryObjectStore::new()),
            LatencyModel::new(TierLatency::micros(200, 0), LatencyMode::Sleep),
        ),
        TieredConfig {
            mem_capacity: 8 << 30,
            ssd_capacity: 64 << 30,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: 0,
                ..DecodedCacheConfig::default()
            },
            prefetch: PrefetchConfig {
                depth,
                ..PrefetchConfig::default()
            },
            ..TieredConfig::default()
        },
    ));
    let mut config = UmziConfig::two_zone(name);
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    UmziIndex::create(storage, IndexPreset::I1.def(), config).expect("create index")
}

/// An index whose decoded cache is the decisive tier: a memory tier too
/// small to matter, sleep-mode SSD latency per chunk read, and a decoded
/// cache ~6× smaller than the dataset — the regime where the replacement
/// policy decides how many block waits a mixed workload pays.
fn index_with_cache_policy(name: &str, policy: CachePolicy) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 64 << 10,
            ssd_capacity: 64 << 30,
            ssd_latency: TierLatency::micros(100, 0),
            latency_mode: LatencyMode::Sleep,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: 512 << 10,
                shards: 4,
                policy,
                ..DecodedCacheConfig::default()
            },
            ..TieredConfig::default()
        },
    ));
    let mut config = UmziConfig::two_zone(name);
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    UmziIndex::create(storage, IndexPreset::I1.def(), config).expect("create index")
}

fn json_entry(m: &Measurement) -> String {
    format!(
        "    {{\"workload\": \"{}\", \"runs\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \"blocks_read_per_op\": {:.3}}}",
        m.workload,
        m.runs,
        m.ops,
        m.ops_per_sec(),
        m.blocks_per_op
    )
}

fn main() {
    let mut results: Vec<Measurement> = Vec::new();
    let mut rng_state = 0x9E3779B97F4A7C15u64;
    let mut next = |bound: u64| {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state % bound.max(1)
    };

    for &rc in &RUN_COUNTS {
        let idx = bench_index(IndexPreset::I1, &format!("qlat-{rc}"));
        let domain = ingest_runs(
            &idx,
            IndexPreset::I1,
            umzi_workload::KeyDist::Random,
            rc,
            PER_RUN,
            false,
            7,
        );

        // Point lookups: single random key per op.
        let keys: Vec<u64> = (0..4096).map(|_| next(domain)).collect();
        results.push(measure("point_lookup", rc, &idx, 2000, |i| {
            let (eq, sort) = point_groups(IndexPreset::I1, keys[(i as usize) % keys.len()]);
            std::hint::black_box(idx.point_lookup(&eq, &sort, u64::MAX).expect("lookup"));
        }));

        // Range scans: all versions of one device (≤ POINT_SPAN keys).
        results.push(measure("range_scan_device", rc, &idx, 400, |i| {
            let d = (keys[(i as usize) % keys.len()] / POINT_SPAN) as i64;
            let query = RangeQuery {
                equality: vec![Datum::Int64(d)],
                lower: SortBound::Unbounded,
                upper: SortBound::Unbounded,
                query_ts: u64::MAX,
            };
            std::hint::black_box(
                idx.range_scan(&query, ReconcileStrategy::PriorityQueue)
                    .expect("scan"),
            );
        }));

        // Batch lookups: 256 random keys per op.
        let batches: Vec<Vec<(Vec<Datum>, Vec<Datum>)>> = (0..16)
            .map(|_| {
                (0..256)
                    .map(|_| point_groups(IndexPreset::I1, next(domain)))
                    .collect()
            })
            .collect();
        results.push(measure("batch_lookup_256", rc, &idx, 64, |i| {
            let batch = &batches[(i as usize) % batches.len()];
            std::hint::black_box(idx.batch_lookup(batch, u64::MAX).expect("batch"));
        }));
    }

    // Parallel reconcile: the same large multi-run scan, merged
    // sequentially (1 thread) vs partitioned across PAR_THREADS threads.
    // Sequential reconcile_pq stays the oracle — the outputs are asserted
    // identical before timing.
    type FlatRows = Vec<(Vec<u8>, Vec<u8>, u64)>;
    let mut par_results = Vec::new();
    {
        let whole_range = RangeQuery {
            equality: vec![Datum::Int64(0)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        let mut oracle: Option<FlatRows> = None;
        for (label, partitions) in [
            ("parallel_reconcile_1t", 1usize),
            ("parallel_reconcile_4t", PAR_THREADS),
        ] {
            let idx = index_with_scan_partitions(&format!("qlat-{label}"), partitions);
            ingest_runs(
                &idx,
                IndexPreset::I1,
                umzi_workload::KeyDist::Random,
                PAR_RUNS,
                PER_RUN,
                true,
                11,
            );
            let rows: FlatRows = idx
                .range_scan(&whole_range, ReconcileStrategy::PriorityQueue)
                .expect("scan")
                .iter()
                .map(|o| (o.key.to_vec(), o.value.to_vec(), o.begin_ts))
                .collect();
            match oracle {
                None => oracle = Some(rows),
                Some(ref want) => {
                    assert_eq!(want, &rows, "parallel merge diverged from the oracle")
                }
            }
            par_results.push(measure(label, PAR_RUNS, &idx, 8, |_| {
                std::hint::black_box(
                    idx.range_scan(&whole_range, ReconcileStrategy::PriorityQueue)
                        .expect("scan"),
                );
            }));
        }
    }

    // Pipelined-prefetch A/B: the same cold multi-run scan off a slow
    // shared tier, readahead off (depth 0, the synchronous block-at-a-time
    // path) vs on. Every op purges the runs back to shared storage first,
    // so each scan pays the full cold-read path; the depth-0 leg sleeps
    // once per block, the pipelined leg once per batch.
    const PF_RUNS: usize = 4;
    const PF_DEPTH: usize = 8;
    let mut prefetch_results = Vec::new();
    {
        let whole_range = RangeQuery {
            equality: vec![Datum::Int64(0)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        let mut oracle: Option<FlatRows> = None;
        for (label, depth) in [
            ("prefetch_cold_scan_depth0", 0usize),
            ("prefetch_cold_scan_pipelined", PF_DEPTH),
        ] {
            let idx = index_with_prefetch(&format!("qlat-{label}"), depth);
            ingest_runs(
                &idx,
                IndexPreset::I1,
                umzi_workload::KeyDist::Random,
                PF_RUNS,
                PER_RUN,
                true,
                17,
            );
            let handles: Vec<_> = idx.zones()[0]
                .list
                .snapshot()
                .iter()
                .map(|r| r.handle())
                .collect();
            let rows: FlatRows = idx
                .range_scan(&whole_range, ReconcileStrategy::PriorityQueue)
                .expect("scan")
                .iter()
                .map(|o| (o.key.to_vec(), o.value.to_vec(), o.begin_ts))
                .collect();
            match oracle {
                None => oracle = Some(rows),
                Some(ref want) => {
                    assert_eq!(want, &rows, "pipelined scan diverged from depth 0")
                }
            }
            prefetch_results.push(measure(label, PF_RUNS, &idx, 8, |_| {
                for h in &handles {
                    idx.storage().purge_object(*h).expect("purge");
                }
                std::hint::black_box(
                    idx.range_scan(&whole_range, ReconcileStrategy::PriorityQueue)
                        .expect("scan"),
                );
            }));
        }
    }

    // Cache-policy A/B: the same mixed HTAP workload — point lookups on a
    // hot working set, periodically interrupted by a full-table scan over a
    // dataset ~6× the decoded cache — under plain LRU vs the scan-resistant
    // policy. The scan-resistant cache keeps the point working set in its
    // protected segment, so post-scan lookups keep hitting.
    const CACHE_RUNS: usize = 3;
    const HOT_KEYS: usize = 16;
    let mut cache_results = Vec::new();
    let mut cache_hit_rates = Vec::new();
    for (label, policy) in [
        ("cache_policy_mixed_lru", CachePolicy::Lru),
        (
            "cache_policy_mixed_scan_resistant",
            CachePolicy::ScanResistant,
        ),
    ] {
        let idx = index_with_cache_policy(&format!("qlat-{label}"), policy);
        let domain = ingest_runs(
            &idx,
            IndexPreset::I1,
            umzi_workload::KeyDist::Sequential,
            CACHE_RUNS,
            PER_RUN,
            true,
            13,
        );
        let hot: Vec<(Vec<Datum>, Vec<Datum>)> = (0..HOT_KEYS)
            .map(|j| scan_groups(j as u64 * (domain / HOT_KEYS as u64)))
            .collect();
        let whole_range = RangeQuery {
            equality: vec![Datum::Int64(0)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        // Warm the working set into the cache (two passes promote it into
        // the protected segment under the scan-resistant policy).
        for _ in 0..3 {
            for (eq, sort) in &hot {
                idx.point_lookup(eq, sort, u64::MAX).expect("warm");
            }
        }
        // Hit rate at *lookup granularity*: a point lookup counts as a hit
        // only when the decoded cache serves it entirely (zero chunk
        // reads) — per-access counters would let a washed cache re-warm
        // itself within one lookup and look healthier than it is.
        let (cached_lookups, total_lookups) =
            (std::cell::Cell::new(0u64), std::cell::Cell::new(0u64));
        cache_results.push(measure(label, CACHE_RUNS, &idx, 512, |i| {
            if i % 16 == 15 {
                std::hint::black_box(
                    idx.range_scan(&whole_range, ReconcileStrategy::PriorityQueue)
                        .expect("scan"),
                );
            } else {
                let (eq, sort) = &hot[(i as usize) % hot.len()];
                let reads_before = idx.storage().stats().chunk_reads;
                std::hint::black_box(idx.point_lookup(eq, sort, u64::MAX).expect("lookup"));
                total_lookups.set(total_lookups.get() + 1);
                if idx.storage().stats().chunk_reads == reads_before {
                    cached_lookups.set(cached_lookups.get() + 1);
                }
            }
        }));
        cache_hit_rates.push((
            label,
            cached_lookups.get() as f64 / total_lookups.get().max(1) as f64,
        ));
    }

    // Telemetry overhead A/B: the same warm point-lookup loop on one index
    // with the instrumentation master switch on vs off. The switch is the
    // only variable (same index, same caches, same keys); the off/on
    // ops/sec ratio is the overhead the histogram-wrapper path costs and
    // must stay within a few percent of 1.0.
    let mut telemetry_results = Vec::new();
    let telemetry_speedup;
    {
        let idx = bench_index(IndexPreset::I1, "qlat-telemetry");
        let domain = ingest_runs(
            &idx,
            IndexPreset::I1,
            umzi_workload::KeyDist::Random,
            8,
            PER_RUN,
            false,
            7,
        );
        let keys: Vec<u64> = (0..4096).map(|_| next(domain)).collect();
        let tel = Arc::clone(idx.storage().telemetry());
        // Warm every block the key set touches so neither leg pays cold
        // misses the other doesn't.
        for k in &keys {
            let (eq, sort) = point_groups(IndexPreset::I1, *k);
            idx.point_lookup(&eq, &sort, u64::MAX).expect("warm");
        }
        let leg = |label: &'static str, enabled: bool| {
            tel.set_enabled(enabled);
            measure(label, 8, &idx, 20_000, |i| {
                let (eq, sort) = point_groups(IndexPreset::I1, keys[(i as usize) % keys.len()]);
                std::hint::black_box(idx.point_lookup(&eq, &sort, u64::MAX).expect("lookup"));
            })
        };
        // Alternate the legs over several rounds and keep each leg's best
        // round: a single on-then-off pass attributes any slow drift over
        // the run (frequency scaling, allocator state) to whichever leg
        // happens to go last, which can swamp the few-percent effect being
        // measured. Best-of-alternating compares each leg at its fastest.
        let mut on: Option<Measurement> = None;
        let mut off: Option<Measurement> = None;
        for _ in 0..3 {
            let m = leg("telemetry_overhead_on", true);
            if on
                .as_ref()
                .is_none_or(|b| m.ops_per_sec() > b.ops_per_sec())
            {
                on = Some(m);
            }
            let m = leg("telemetry_overhead_off", false);
            if off
                .as_ref()
                .is_none_or(|b| m.ops_per_sec() > b.ops_per_sec())
            {
                off = Some(m);
            }
        }
        let (on, off) = (on.expect("rounds > 0"), off.expect("rounds > 0"));
        tel.set_enabled(true);
        telemetry_speedup = off.ops_per_sec() / on.ops_per_sec().max(1e-9);
        telemetry_results.push(on);
        telemetry_results.push(off);
    }

    // Before/after on the run-search hot path itself: one 20k-entry run,
    // searched 2000 times. "Before" = per-entry binary search, decoded
    // cache off (the pre-change read path); "after" = fence index +
    // decoded cache.
    let before_idx = index_without_decoded_cache("qlat-before");
    ingest_runs(
        &before_idx,
        IndexPreset::I1,
        umzi_workload::KeyDist::Random,
        1,
        PER_RUN,
        false,
        7,
    );
    let before_run = before_idx.zones()[0].list.snapshot()[0].clone();
    let target = {
        let (eq, sort) = point_groups(IndexPreset::I1, next(PER_RUN));
        let mut full = before_idx.layout().build_key(&eq, &sort, 0).expect("key");
        full.truncate(full.len() - 8);
        full
    };
    let before = measure("search_before_scalar_nocache", 1, &before_idx, 2000, |_| {
        std::hint::black_box(
            RunSearcher::new(&before_run)
                .find_first_geq_scalar(&target, None)
                .expect("search"),
        );
    });

    let after_idx = bench_index(IndexPreset::I1, "qlat-after");
    ingest_runs(
        &after_idx,
        IndexPreset::I1,
        umzi_workload::KeyDist::Random,
        1,
        PER_RUN,
        false,
        7,
    );
    let after_run = after_idx.zones()[0].list.snapshot()[0].clone();
    let after = measure("search_after_fence_cached", 1, &after_idx, 2000, |_| {
        std::hint::black_box(
            RunSearcher::new(&after_run)
                .find_first_geq(&target, None)
                .expect("search"),
        );
    });

    // Report.
    eprintln!("\n== query_latency ==");
    eprintln!(
        "{:<28} {:>5} {:>14} {:>18}",
        "workload", "runs", "ops/sec", "blocks-read/op"
    );
    for m in results
        .iter()
        .chain(&par_results)
        .chain(&prefetch_results)
        .chain(&cache_results)
        .chain(&telemetry_results)
        .chain([&before, &after])
    {
        eprintln!(
            "{:<28} {:>5} {:>14.0} {:>18.3}",
            m.workload,
            m.runs,
            m.ops_per_sec(),
            m.blocks_per_op
        );
    }
    let speedup = after.ops_per_sec() / before.ops_per_sec().max(1e-9);
    eprintln!(
        "\nrun-search before→after: {:.1}x ops/sec, {:.2} → {:.2} blocks/op",
        speedup, before.blocks_per_op, after.blocks_per_op
    );
    let par_speedup = par_results[1].ops_per_sec() / par_results[0].ops_per_sec().max(1e-9);
    eprintln!(
        "parallel reconcile 1→{PAR_THREADS} threads ({PAR_RUNS} runs, {} rows): {:.2}x ops/sec",
        PAR_RUNS as u64 * PER_RUN,
        par_speedup
    );
    let prefetch_speedup =
        prefetch_results[1].ops_per_sec() / prefetch_results[0].ops_per_sec().max(1e-9);
    eprintln!(
        "pipelined prefetch depth 0→{PF_DEPTH} ({PF_RUNS} runs, cold shared reads): {:.2}x ops/sec",
        prefetch_speedup
    );
    let cache_hit_speedup = cache_hit_rates[1].1 / cache_hit_rates[0].1.max(1e-9);
    for (label, rate) in &cache_hit_rates {
        eprintln!("{label}: point hit rate {rate:.3}");
    }
    eprintln!(
        "cache policy Lru→ScanResistant under scan interference: {cache_hit_speedup:.2}x point hit rate"
    );
    eprintln!(
        "telemetry overhead: disabled/enabled = {telemetry_speedup:.3}x ops/sec (1.0 = free)"
    );

    let mut json = String::from("{\n  \"bench\": \"query_latency\",\n  \"results\": [\n");
    let lines: Vec<String> = results
        .iter()
        .chain(&par_results)
        .chain(&prefetch_results)
        .chain(&cache_results)
        .chain(&telemetry_results)
        .chain([&before, &after])
        .map(json_entry)
        .collect();
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"search_speedup_ops_per_sec\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"parallel_scan_speedup_ops_per_sec\": {par_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"prefetch_speedup_ops_per_sec\": {prefetch_speedup:.2},"
    );
    for (label, rate) in &cache_hit_rates {
        let _ = writeln!(json, "  \"{label}_point_hit_rate\": {rate:.3},");
    }
    let _ = writeln!(
        json,
        "  \"telemetry_off_over_on_speedup\": {telemetry_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"cache_policy_hit_rate_speedup\": {cache_hit_speedup:.2}"
    );
    json.push_str("}\n");

    let out_path = std::env::var("UMZI_BENCH_QUERY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json").to_string()
    });
    std::fs::write(&out_path, json).expect("write BENCH_query.json");
    eprintln!("wrote {out_path}");
}
