//! The three workloads and the machinery they share: the closed-loop
//! reader, the open-loop writer, and the freshness prober.
//!
//! Every workload runs all three kinds of operation, so every end-to-end
//! metric is measured on every workload; what differs is which one
//! dominates and what the engine does underneath (see README.md).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use umzi_core::MaintenanceStats;
use umzi_encoding::Datum;
use umzi_run::SortBound;
use umzi_storage::{
    DecodedCacheConfig, InMemoryObjectStore, LatencyMode, PrefetchConfig, TierLatency, TieredConfig,
};
use umzi_wildfire::{EngineDaemons, Freshness, Result, WildfireEngine};
use umzi_workload::IotUpdateModel;

use crate::data::{self, KeySpace, Model, Rng, Zipf, P_UPDATE};
use crate::measure::{Checker, OpCount, Samples};

/// How early before a batch is due the writer stops sleeping and spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);

/// Interval between freshness probes of the oldest unseen write.
const PROBE_EVERY: Duration = Duration::from_micros(200);

/// How long, after the writer stops, the last writes may take to become
/// visible before each is counted as a failed operation. The daemons' groom
/// tick is one second, so every acked row is visible well within this.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Groom period where the workload grooms explicitly instead of running
/// the daemons.
const GROOM_EVERY: Duration = Duration::from_millis(20);

/// Writer keys verified against the model after the run.
const VERIFY_KEYS: usize = 500;

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One reader operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `get(Latest)` of a dense key.
    Get(u64),
    /// `scan_records` over messages `[lo, lo + len)` of one device.
    Scan { device: u64, lo: u64, len: u64 },
}

/// How a workload picks the keys it reads.
pub enum KeyPick {
    Zipf(Zipf),
    Uniform(u64),
}

/// The reader's operation mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of operations that are scans.
    pub scan_share: f64,
    /// Rows per scan.
    pub scan_len: u64,
}

/// A seeded stream of reader operations over a static dataset.
pub struct OpStream {
    rng: Rng,
    keys: KeyPick,
    mix: Mix,
    devices: u64,
    full_msgs: u64,
}

impl OpStream {
    pub fn new(seed: u64, keys: KeyPick, mix: Mix, model: &Model) -> OpStream {
        assert!(
            model.full_msgs() >= mix.scan_len,
            "scan longer than a device"
        );
        OpStream {
            rng: Rng::new(seed),
            keys,
            mix,
            devices: model.space.devices,
            full_msgs: model.full_msgs(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.rng.unit() < self.mix.scan_share {
            Op::Scan {
                device: self.rng.below(self.devices),
                lo: self.rng.below(self.full_msgs - self.mix.scan_len + 1),
                len: self.mix.scan_len,
            }
        } else {
            Op::Get(match &self.keys {
                KeyPick::Zipf(z) => z.sample(&mut self.rng),
                KeyPick::Uniform(n) => self.rng.below(*n),
            })
        }
    }
}

pub fn scan_bounds(device: u64, lo: u64, len: u64) -> (Vec<Datum>, SortBound, SortBound) {
    (
        vec![Datum::Int64(device as i64)],
        SortBound::Included(vec![Datum::Int64(lo as i64)]),
        SortBound::Excluded(vec![Datum::Int64((lo + len) as i64)]),
    )
}

/// Latencies and counts of the reader's operations.
#[derive(Debug, Default)]
pub struct ReadStats {
    pub get: Samples,
    pub scan: Samples,
    pub scan_rows: u64,
    pub ops: OpCount,
}

/// Run one operation through the engine, time it, and check its answer.
pub fn exec(engine: &WildfireEngine, model: &Model, op: Op, st: &mut ReadStats, ck: &Checker) {
    match op {
        Op::Get(key) => {
            let (eq, sort) = model.space.probe(key);
            let t = Instant::now();
            let r = engine.get(&eq, &sort, Freshness::Latest);
            let dt = t.elapsed();
            if let Some(got) = st.ops.note(r) {
                st.get.push(dt);
                ck.check(model.check_get(key, got.as_ref()));
            }
        }
        Op::Scan { device, lo, len } => {
            let (eq, lower, upper) = scan_bounds(device, lo, len);
            let t = Instant::now();
            let r = engine.scan_records(eq, lower, upper, Freshness::Latest);
            let dt = t.elapsed();
            if let Some(got) = st.ops.note(r) {
                st.scan.push(dt);
                st.scan_rows += got.len() as u64;
                let rows: Vec<&[Datum]> = got.iter().map(|v| v.row.as_slice()).collect();
                ck.check(model.check_rows(device, lo, len, &rows));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Writer and freshness
// ---------------------------------------------------------------------

/// An acked write whose visibility the prober is waiting for.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    key: u64,
    version: i64,
    acked: Instant,
}

pub type ProbeQueue = Mutex<VecDeque<Probe>>;

/// The open-loop writer's schedule and key space.
#[derive(Debug, Clone, Copy)]
pub struct WritePlan {
    pub rows_per_s: f64,
    pub batch: usize,
    /// Writer keys start here, past the static dataset, so reads of the
    /// dataset stay exact while the writer runs.
    pub key_offset: u64,
    pub first_version: i64,
    pub space: KeySpace,
    pub seed: u64,
}

#[derive(Debug, Default)]
pub struct WriteStats {
    /// Batch due time → `upsert_many` ack.
    pub ack: Samples,
    /// Batch due time → send: how late the generator ran.
    pub lag: Samples,
    pub rows: u64,
    pub ops: OpCount,
    /// First due time → last ack.
    pub elapsed: Duration,
    /// Newest acked version per writer key.
    pub latest: HashMap<u64, i64>,
}

/// Ingest the IoT model's rows in batches on the plan's schedule until
/// `stop` is raised. The model's cycles are as large as the set-up's, and
/// each batch's last row becomes a freshness probe.
pub fn write(
    engine: &WildfireEngine,
    plan: &WritePlan,
    stop: &AtomicBool,
    q: &ProbeQueue,
) -> WriteStats {
    let mut gen = IotUpdateModel::new(P_UPDATE, data::CYCLE_ROWS, plan.seed);
    let mut pending = VecDeque::new();
    let interval = Duration::from_secs_f64(plan.batch as f64 / plan.rows_per_s);
    let mut st = WriteStats::default();
    let mut version = plan.first_version;
    let start = Instant::now();
    let mut last_ack = start;
    for i in 0u32.. {
        while pending.len() < plan.batch {
            pending.extend(data::iot_batch(&mut gen, plan.key_offset));
        }
        let mut rows = Vec::with_capacity(plan.batch);
        let mut written = Vec::with_capacity(plan.batch);
        for k in pending.drain(..plan.batch) {
            rows.push(plan.space.row(k, version));
            written.push((k, version));
            version += 1;
        }
        let due = start + interval * i;
        // Sleep to just short of the due time and spin the rest: a sleeping
        // thread wakes late by the timer slack, which would count as ack
        // latency the engine did not cause.
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN_BEFORE_DUE) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        st.lag.push(Instant::now() - due);
        if st.ops.note(engine.upsert_many(rows)).is_some() {
            let acked = Instant::now();
            st.ack.push(acked - due);
            st.rows += written.len() as u64;
            let &(key, version) = written.last().expect("batches are never empty");
            st.latest.extend(written);
            q.lock()
                .expect("probe queue lock poisoned")
                .push_back(Probe {
                    key,
                    version,
                    acked,
                });
            last_ack = acked;
        }
    }
    st.elapsed = last_ack - start;
    st
}

/// Commit-to-visibility latencies and the probes spent measuring them.
#[derive(Debug, Default)]
pub struct FreshStats {
    pub samples: Samples,
    pub ops: OpCount,
}

/// Probe the oldest unseen writes: each that `get(Latest)` now returns at
/// its acked version (or newer) yields one freshness sample.
pub fn probe_visible(
    engine: &WildfireEngine,
    space: KeySpace,
    q: &ProbeQueue,
    fs: &mut FreshStats,
    ck: &Checker,
) {
    loop {
        let front = q
            .lock()
            .expect("probe queue lock poisoned")
            .front()
            .copied();
        let Some(p) = front else { return };
        let (eq, sort) = space.probe(p.key);
        let Some(got) = fs.ops.note(engine.get(&eq, &sort, Freshness::Latest)) else {
            return;
        };
        let Some(view) = got else { return };
        match space.version_of(p.key, &view.row) {
            None => {
                ck.wrong(format!(
                    "get({}) returned another key's row {:?}",
                    p.key, view.row
                ));
                return;
            }
            Some(v) if v >= p.version => {
                fs.samples.push(p.acked.elapsed());
                q.lock().expect("probe queue lock poisoned").pop_front();
            }
            Some(_) => return,
        }
    }
}

/// Paces the freshness probes a reader makes between its operations.
pub struct ProbePacer(Instant);

impl ProbePacer {
    pub fn new() -> ProbePacer {
        ProbePacer(Instant::now())
    }

    /// Probe when [`PROBE_EVERY`] has passed since the last probe.
    pub fn tick(
        &mut self,
        engine: &WildfireEngine,
        space: KeySpace,
        q: &ProbeQueue,
        fs: &mut FreshStats,
        ck: &Checker,
    ) {
        if Instant::now() >= self.0 {
            probe_visible(engine, space, q, fs, ck);
            self.0 = Instant::now() + PROBE_EVERY;
        }
    }
}

/// Probe until every acked write is visible, grooming explicitly when no
/// daemon does; a write still invisible after [`DRAIN_LIMIT`] counts as a
/// failed operation.
fn drain(
    engine: &WildfireEngine,
    groom: bool,
    space: KeySpace,
    q: &ProbeQueue,
    fs: &mut FreshStats,
    ck: &Checker,
) {
    let end = Instant::now() + DRAIN_LIMIT;
    loop {
        if groom {
            fs.ops.note(engine.groom_all());
        }
        probe_visible(engine, space, q, fs, ck);
        let left = q.lock().expect("probe queue lock poisoned").len() as u64;
        if left == 0 || ck.failed() {
            return;
        }
        if Instant::now() >= end {
            fs.ops.attempted += left;
            fs.ops.failed += left;
            eprintln!("{left} acked writes never became visible");
            return;
        }
        std::thread::sleep(PROBE_EVERY);
    }
}

/// After the daemons stopped and the live zone was groomed, every acked
/// write must read back at its newest version; check a deterministic
/// sample.
fn verify_writes(
    engine: &WildfireEngine,
    space: KeySpace,
    latest: &HashMap<u64, i64>,
    ops: &mut OpCount,
    ck: &Checker,
) {
    let mut keys: Vec<u64> = latest.keys().copied().collect();
    keys.sort_unstable();
    let step = keys.len().div_ceil(VERIFY_KEYS).max(1);
    for &k in keys.iter().step_by(step) {
        let (eq, sort) = space.probe(k);
        let Some(got) = ops.note(engine.get(&eq, &sort, Freshness::Latest)) else {
            continue;
        };
        let want = space.row(k, latest[&k]);
        if got.as_ref().map(|v| &v.row) != Some(&want) {
            ck.wrong(format!(
                "after the run get({k}) returned {got:?}, expected {want:?}"
            ));
            return;
        }
    }
}

/// Raises the stop flag when dropped, so a panicking main loop still stops
/// the writer thread it shares a scope with.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Everything one write phase measured.
pub struct WriteRun<R> {
    pub main: R,
    pub write: WriteStats,
    pub fresh: FreshStats,
    /// Daemon statistics at the end of the phase, when daemons ran.
    pub daemon: Option<MaintenanceStats>,
    pub wall: Duration,
    pub shared_written: u64,
}

/// Run the writer on its own thread while `main` runs on this one; then
/// wait for the last writes to become visible, stop the daemons (when
/// `daemons` is given; otherwise `main` grooms, see [`groomer`]), and
/// verify the writes.
pub fn with_writer<R>(
    engine: &Arc<WildfireEngine>,
    daemons: Option<EngineDaemons>,
    plan: &WritePlan,
    ck: &Checker,
    ops: &mut OpCount,
    main: impl FnOnce(&ProbeQueue, &mut FreshStats) -> R,
) -> Result<WriteRun<R>> {
    let written0 = engine.storage().stats().shared.bytes_written;
    let q = ProbeQueue::default();
    let stop = AtomicBool::new(false);
    let mut fresh = FreshStats::default();
    let t0 = Instant::now();
    let (main, write) = std::thread::scope(|s| {
        let writer = s.spawn(|| write(engine, plan, &stop, &q));
        let guard = StopOnDrop(&stop);
        let out = main(&q, &mut fresh);
        drop(guard);
        (out, writer.join().expect("writer thread panicked"))
    });
    let wall = t0.elapsed();
    let shared_written = engine.storage().stats().shared.bytes_written - written0;
    drain(engine, daemons.is_none(), plan.space, &q, &mut fresh, ck);
    let daemon = daemons.and_then(|d| {
        let stats = d.daemon().map(|daemon| daemon.stats());
        d.shutdown();
        stats
    });
    // Groom what the writer left in the live zone, so every acked write is
    // readable at `Latest`.
    engine.groom_all()?;
    ops.add(write.ops);
    ops.add(fresh.ops);
    verify_writes(engine, plan.space, &write.latest, ops, ck);
    Ok(WriteRun {
        main,
        write,
        fresh,
        daemon,
        wall,
        shared_written,
    })
}

/// Groom every [`GROOM_EVERY`] and probe for freshness in between, on this
/// thread, until `dur` has passed: the application's own groomer for a
/// workload that runs no daemons.
pub fn groomer<'a>(
    engine: &'a WildfireEngine,
    space: KeySpace,
    dur: Duration,
    ck: &'a Checker,
) -> impl FnOnce(&ProbeQueue, &mut FreshStats) + 'a {
    move |q, fs| {
        let start = Instant::now();
        let mut next_groom = start;
        while start.elapsed() < dur && !ck.failed() {
            if Instant::now() >= next_groom {
                fs.ops.note(engine.groom_all());
                next_groom += GROOM_EVERY;
            }
            probe_visible(engine, space, q, fs, ck);
            std::thread::sleep(PROBE_EVERY);
        }
    }
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// A loaded engine in its measured state.
pub struct Rig {
    pub store: Arc<InMemoryObjectStore>,
    pub engine: Arc<WildfireEngine>,
    pub model: Model,
    pub config: TieredConfig,
    /// Time of the `WildfireEngine::recover` that set the rig up, if any.
    pub recover: Option<Duration>,
    /// Daemons started during set-up (htap_mixed).
    pub daemons: Option<EngineDaemons>,
}

impl Rig {
    pub fn write_plan(&self, rows_per_s: f64, batch: usize, seed: u64) -> WritePlan {
        WritePlan {
            rows_per_s,
            batch,
            key_offset: self.model.keys(),
            first_version: self.model.next_version(),
            space: self.model.space,
            seed,
        }
    }

    /// Recover a second engine from this rig's object store, as after a
    /// restart; returns how long `WildfireEngine::recover` took.
    pub fn time_recover(&self) -> Result<Duration> {
        let storage = data::storage(&self.store, self.config.clone());
        let t = Instant::now();
        let engine = data::recover(storage)?;
        let dt = t.elapsed();
        drop(engine);
        Ok(dt)
    }
}

/// A workload: how to set it up and what its clients do.
pub struct Spec {
    pub name: &'static str,
    pub setup: fn(u64) -> Result<Rig>,
    pub keys: fn(&Model) -> KeyPick,
    pub mix: Mix,
    /// Writer rate and batch size.
    pub rows_per_s: f64,
    pub batch: usize,
    /// Whether the writer runs beside the reader (htap_mixed) or after it.
    pub concurrent: bool,
    /// Reader operations in the traced run: counted untraced, then traced.
    pub counted_ops: usize,
    pub traced_ops: usize,
}

pub const POINT_WARM: Spec = Spec {
    name: "point_warm",
    setup: setup_point_warm,
    keys: |m| KeyPick::Zipf(Zipf::new(m.keys())),
    mix: Mix {
        scan_share: 0.02,
        scan_len: 150,
    },
    rows_per_s: 20_000.0,
    batch: 20,
    concurrent: false,
    counted_ops: 100_000,
    traced_ops: 20_000,
};

pub const SCAN_COLD: Spec = Spec {
    name: "scan_cold",
    setup: setup_scan_cold,
    keys: |m| KeyPick::Uniform(m.keys()),
    mix: Mix {
        scan_share: 0.5,
        scan_len: 300,
    },
    rows_per_s: 20_000.0,
    batch: 20,
    concurrent: false,
    counted_ops: 600,
    traced_ops: 200,
};

pub const HTAP_MIXED: Spec = Spec {
    name: "htap_mixed",
    setup: setup_htap,
    keys: |m| KeyPick::Zipf(Zipf::new(m.keys())),
    mix: Mix {
        scan_share: 0.05,
        scan_len: 20,
    },
    rows_per_s: 20_000.0,
    batch: 40,
    concurrent: true,
    counted_ops: 150_000,
    traced_ops: 40_000,
};

pub const ALL: [&Spec; 3] = [&POINT_WARM, &SCAN_COLD, &HTAP_MIXED];

/// Operations issued to warm caches before measuring.
const WARMUP_GETS: usize = 20_000;
const WARMUP_SCANS: usize = 200;

/// An engine over in-memory storage whose latencies are only accounted,
/// loaded with `cycles` IoT cycles of 4000 rows over 1000 devices, each
/// groomed into its own level-0 run; quiesced (merged and post-groomed) when
/// `merge`; then warmed with zipf gets.
fn warm_rig(seed: u64, cycles: usize, merge: bool) -> Result<Rig> {
    let store = Arc::new(InMemoryObjectStore::new());
    let config = TieredConfig::default().with_default_latencies();
    let engine = data::create(data::storage(&store, config.clone()))?;
    let mut model = Model::new(1000);
    data::load(&engine, &mut model, cycles, data::CYCLE_ROWS, seed)?;
    if merge {
        engine.quiesce()?;
    }
    let mut rng = Rng::new(seed ^ 0xA11CE);
    let zipf = Zipf::new(model.keys());
    for _ in 0..WARMUP_GETS {
        let (eq, sort) = model.space.probe(zipf.sample(&mut rng));
        engine.get(&eq, &sort, Freshness::Latest)?;
    }
    Ok(Rig {
        store,
        engine,
        model,
        config,
        recover: None,
        daemons: None,
    })
}

/// `point_warm`: 50 cycles, 50 level-0 runs per shard never merged (no
/// daemons), about 8 MiB of index in the default 64 MiB decoded cache.
fn setup_point_warm(seed: u64) -> Result<Rig> {
    warm_rig(seed, 50, false)
}

/// `scan_cold`: 40 cycles of 5000 rows over 200 devices, groomed, merged and
/// post-groomed with free storage, then recovered over the same objects
/// into a hierarchy whose SSD and shared latencies are enforced by sleeping
/// and whose memory tier (1 MiB), decoded cache (1 MiB) and SSD tier
/// (4 MiB) together hold well under the ~8 MiB of index.
fn setup_scan_cold(seed: u64) -> Result<Rig> {
    let store = Arc::new(InMemoryObjectStore::new());
    let mut model = Model::new(200);
    {
        let engine = data::create(data::storage(&store, TieredConfig::default()))?;
        data::load(&engine, &mut model, 40, 5000, seed)?;
        engine.quiesce()?;
    }
    let config = TieredConfig {
        mem_capacity: 1 << 20,
        ssd_capacity: 4 << 20,
        ssd_latency: TierLatency::micros(100, 1),
        shared_latency: TierLatency::micros(500, 10),
        latency_mode: LatencyMode::Sleep,
        decoded_cache: DecodedCacheConfig {
            capacity_bytes: 1 << 20,
            ..DecodedCacheConfig::default()
        },
        prefetch: PrefetchConfig {
            depth: 4,
            ..PrefetchConfig::default()
        },
        ..TieredConfig::default()
    };
    let storage = data::storage(&store, config.clone());
    let t = Instant::now();
    let engine = data::recover(storage)?;
    let recover = t.elapsed();
    let mut rng = Rng::new(seed ^ 0xC01D);
    let full = model.full_msgs();
    for _ in 0..WARMUP_SCANS {
        let (eq, lower, upper) = scan_bounds(rng.below(200), rng.below(full - 300 + 1), 300);
        engine.scan_records(eq, lower, upper, Freshness::Latest)?;
    }
    Ok(Rig {
        store,
        engine,
        model,
        config,
        recover: Some(recover),
        daemons: None,
    })
}

/// `htap_mixed`: 30 cycles, quiesced, then the default maintenance daemons
/// started.
fn setup_htap(seed: u64) -> Result<Rig> {
    let mut rig = warm_rig(seed, 30, true)?;
    rig.daemons = Some(rig.engine.start_daemons());
    Ok(rig)
}

/// Seeds of the streams derived from `--seed`, one per client.
pub fn stream_seed(seed: u64, client: u64) -> u64 {
    Rng::new(seed.wrapping_mul(31).wrapping_add(client)).next_u64()
}
