//! The background maintenance daemon (§5.1, generalized).
//!
//! The paper dedicates one thread per level plus a janitor; this subsystem
//! generalizes that into a **prioritized job scheduler**: maintenance work
//! is described as [`Job`]s (groom, merge, evolve, retire-deprecated-blocks)
//! enqueued from the ingest path and from periodic ticks, deduplicated
//! against the pending queue, and drained by a configurable pool of worker
//! threads. Finished jobs enqueue their follow-ups (a groom poke its merge,
//! a merge the next level's merge, an evolve the janitor), so work chains
//! event-driven instead of polling.
//!
//! The daemon also owns the **write-path backpressure gate**
//! ([`Backpressure`]): ingest stalls when the level-0 run count reaches a
//! configurable high watermark and resumes at the low watermark, so
//! sustained writes cannot outrun grooming (the HTAP-survey "throttling"
//! ingredient).
//!
//! Embedders supply a [`JobExecutor`]; [`IndexDaemon`] is the ready-made
//! executor for one standalone [`UmziIndex`] (merge + janitor, the §5.1
//! feature set), while the Wildfire engine installs its own executor
//! covering the full groom → merge → evolve → retire pipeline across
//! shards.

mod job;
mod retry;
mod scheduler;
mod stats;
mod throttle;

pub use job::{Job, JobExecutor, JobKind, JobOutcome, JobResult};
pub use retry::QuarantinedJob;
pub use stats::{JobKindStats, MaintenanceStats};
pub use throttle::{Backpressure, BackpressureStats, GateLoad};

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::MaintenanceConfig;
use crate::index::{MaintEvent, UmziIndex};
use retry::{FailureDecision, RetryTracker};
use scheduler::JobQueue;
use stats::DaemonCounters;

/// An interruptible stop flag for tick threads: `wait(d)` returns early
/// (with `true`) the moment `raise` is called, so shutdown never waits out
/// a long tick interval. Used by the daemon's janitor tick and by embedder
/// tickers (e.g. the Wildfire groom/post-groom loops).
pub struct StopSignal {
    stopped: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Default for StopSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl StopSignal {
    /// A lowered (not yet raised) signal.
    pub fn new() -> StopSignal {
        StopSignal {
            stopped: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Raise the signal, waking every sleeper immediately.
    pub fn raise(&self) {
        let mut s = self
            .stopped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *s = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Sleep up to `d`; returns whether the signal was raised.
    pub fn wait(&self, d: std::time::Duration) -> bool {
        let deadline = Instant::now() + d;
        let mut s = self
            .stopped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*s {
            let Some(rest) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .cv
                .wait_timeout(s, rest)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
        true
    }
}

/// The maintenance daemon: a job queue, a worker pool, a janitor tick and
/// the ingest backpressure gate. Shuts down gracefully (drains the queue)
/// on [`MaintenanceDaemon::shutdown`] or drop.
pub struct MaintenanceDaemon {
    queue: Arc<JobQueue>,
    counters: Arc<DaemonCounters>,
    gate: Arc<Backpressure>,
    retry: Arc<RetryTracker>,
    config: MaintenanceConfig,
    stop_ticks: Arc<StopSignal>,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl MaintenanceDaemon {
    /// Spawn `config.workers` worker threads plus the janitor ticker.
    pub fn spawn(
        executor: Arc<dyn JobExecutor>,
        config: MaintenanceConfig,
    ) -> Arc<MaintenanceDaemon> {
        let queue = Arc::new(JobQueue::new(config.fair_dequeue));
        let counters = Arc::new(DaemonCounters::default());
        let gate = Arc::new(
            Backpressure::new(config.l0_high_watermark, config.l0_low_watermark)
                .with_byte_watermarks(
                    config.l0_bytes_high_watermark,
                    config.l0_bytes_low_watermark,
                ),
        );
        gate.set_enabled(true);
        let retry = Arc::new(RetryTracker::new(
            config.job_retries,
            config.job_retry_backoff,
            config.quarantine_probe_interval,
        ));
        let stop_ticks = Arc::new(StopSignal::new());
        let mut threads = Vec::with_capacity(config.workers + 1);

        for w in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let executor = Arc::clone(&executor);
            let gate = Arc::clone(&gate);
            let retry = Arc::clone(&retry);
            let telemetry = executor.telemetry();
            let throttle = config.throttle;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("umzi-maint-{w}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let kind = counters.kind(job.kind());
                            let t0 = Instant::now();
                            let mut worked = false;
                            match executor.execute(job) {
                                Ok(outcome) => {
                                    retry.on_success(job);
                                    if outcome.did_work {
                                        worked = true;
                                        kind.runs.fetch_add(1, Ordering::Relaxed);
                                        kind.items_moved
                                            .fetch_add(outcome.items_moved, Ordering::Relaxed);
                                        kind.bytes_moved
                                            .fetch_add(outcome.bytes_moved, Ordering::Relaxed);
                                    } else {
                                        kind.no_work.fetch_add(1, Ordering::Relaxed);
                                    }
                                    for f in outcome.follow_ups {
                                        queue.push_follow_up(f);
                                    }
                                    if outcome.l0_runs.is_some() || outcome.l0_bytes.is_some() {
                                        gate.update(GateLoad {
                                            l0_runs: outcome.l0_runs.unwrap_or(0),
                                            l0_bytes: outcome.l0_bytes.unwrap_or(0),
                                        });
                                    }
                                }
                                Err(e) => {
                                    // Never fatal: the job is re-enqueued
                                    // with backoff until its retry budget
                                    // runs out, then quarantined for slow
                                    // janitor re-probes.
                                    kind.failures.fetch_add(1, Ordering::Relaxed);
                                    match retry.on_failure(job, &e.to_string(), Instant::now()) {
                                        FailureDecision::Retry { .. } => {
                                            kind.retries.fetch_add(1, Ordering::Relaxed);
                                        }
                                        FailureDecision::Quarantined { newly } => {
                                            if newly {
                                                kind.quarantined.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                    }
                                }
                            }
                            let elapsed = t0.elapsed().as_nanos() as u64;
                            kind.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
                            if let Some(tel) = &telemetry {
                                if tel.is_enabled() {
                                    tel.ops().jobs[job.kind().index()].record(elapsed);
                                }
                            }
                            queue.done();
                            if worked {
                                if let Some(pause) = throttle {
                                    std::thread::sleep(pause);
                                }
                            }
                        }
                    })
                    .expect("spawn maintenance worker"),
            );
        }

        // Janitor tick: periodically poke the retire job for every shard,
        // catching deferred deprecated blocks whose covering runs were
        // GC'd since the last evolve. The same thread is the retry pump —
        // it moves failed jobs whose backoff has elapsed (and quarantined
        // jobs due a slow re-probe) back into the queue, so no worker ever
        // sleeps out a backoff.
        {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop_ticks);
            let retry = Arc::clone(&retry);
            let interval = config.janitor_interval;
            let shards = executor.shard_count();
            threads.push(
                std::thread::Builder::new()
                    .name("umzi-janitor".into())
                    .spawn(move || {
                        // Retry backoffs are usually much shorter than the
                        // janitor interval; pump on a finer cadence.
                        let pump = interval.min(Duration::from_millis(10));
                        let mut next_retire = Instant::now();
                        loop {
                            let now = Instant::now();
                            if now >= next_retire {
                                for shard in 0..shards {
                                    queue.push(Job::RetireDeprecatedBlocks { shard });
                                }
                                next_retire = now + interval;
                            }
                            for job in retry.due(now) {
                                queue.push(job);
                            }
                            if stop.wait(pump) {
                                break;
                            }
                        }
                    })
                    .expect("spawn janitor tick"),
            );
        }

        Arc::new(MaintenanceDaemon {
            queue,
            counters,
            gate,
            retry,
            config,
            stop_ticks,
            threads: parking_lot::Mutex::new(threads),
        })
    }

    /// Enqueue a job; returns `false` if it was deduplicated against an
    /// equal pending job or the daemon is shutting down.
    pub fn enqueue(&self, job: Job) -> bool {
        self.queue.push(job)
    }

    /// The ingest backpressure gate.
    pub fn backpressure(&self) -> &Arc<Backpressure> {
        &self.gate
    }

    /// The configuration the daemon was spawned with.
    pub fn config(&self) -> &MaintenanceConfig {
        &self.config
    }

    /// Whether no job is pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_idle()
    }

    /// Block until the queue is idle or `timeout` elapses; returns whether
    /// idleness was reached. (Quiesce points in tests and benchmarks.)
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        self.queue.wait_idle(timeout)
    }

    /// Snapshot the daemon's statistics.
    pub fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            per_kind: JobKind::ALL
                .iter()
                .map(|k| (*k, self.counters.snapshot(*k)))
                .collect(),
            queue_depth: self.queue.depth(),
            peak_queue_depth: self.queue.peak_depth.load(Ordering::Relaxed),
            dedup_hits: self.queue.dedup_hits.load(Ordering::Relaxed),
            enqueued: self.queue.enqueued.load(Ordering::Relaxed),
            workers: self.config.workers.max(1),
            backpressure: self.gate.stats(),
            quarantined_now: self.retry.quarantined_count(),
            degraded: self.retry.quarantined_count() > 0,
            quarantined_jobs: self.retry.quarantined_jobs(),
            peak_dequeue_age: std::array::from_fn(|i| {
                self.queue.peak_dequeue_age[i].load(Ordering::Relaxed)
            }),
        }
    }

    /// Whether any job is quarantined (failed past its retry budget); the
    /// write path uses this to label backpressure errors.
    pub fn is_degraded(&self) -> bool {
        self.retry.quarantined_count() > 0
    }

    /// Graceful shutdown: stop the ticks, stop accepting new jobs, let the
    /// workers drain the queue, then join everything. The queue is empty
    /// afterwards.
    pub fn shutdown(&self) {
        self.stop_ticks.raise();
        // Writers must not stay stalled with no one left to relieve them.
        self.gate.set_enabled(false);
        self.queue.close();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for MaintenanceDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Executor for one standalone index: merges plus the janitor (graveyard GC
/// and adaptive cache maintenance). Groom and evolve jobs are no-ops — a
/// bare index has no live zone or post-groomer; those kinds only carry work
/// when a full engine embeds the daemon.
struct IndexExecutor {
    index: Arc<UmziIndex>,
    adaptive_cache: bool,
}

impl JobExecutor for IndexExecutor {
    fn shard_count(&self) -> usize {
        1
    }

    fn telemetry(&self) -> Option<Arc<umzi_storage::Telemetry>> {
        Some(Arc::clone(self.index.storage().telemetry()))
    }

    fn execute(&self, job: Job) -> JobResult {
        match job {
            Job::Merge { level, .. } => match self.index.merge_at(level) {
                Ok(Some(report)) => Ok(JobOutcome {
                    follow_ups: vec![
                        Job::Merge { shard: 0, level },
                        Job::Merge {
                            shard: 0,
                            level: level + 1,
                        },
                    ],
                    items_moved: report.output_entries,
                    bytes_moved: report.output_bytes,
                    did_work: true,
                    l0_runs: Some(self.index.level0_run_count()),
                    l0_bytes: Some(self.index.level0_run_bytes()),
                }),
                Ok(None) => Ok(JobOutcome::idle()),
                // Inputs were concurrently removed (e.g. evolve GC); the
                // next build or tick retries.
                Err(crate::error::UmziError::MergeConflict) => Ok(JobOutcome::idle()),
                Err(e) => Err(e.into()),
            },
            Job::RetireDeprecatedBlocks { .. } => {
                let deleted = self.index.collect_garbage()?;
                if self.adaptive_cache {
                    self.index.cache_maintain()?;
                }
                Ok(JobOutcome {
                    follow_ups: Vec::new(),
                    items_moved: deleted as u64,
                    bytes_moved: 0,
                    did_work: deleted > 0,
                    l0_runs: None,
                    l0_bytes: None,
                })
            }
            Job::Groom { .. } | Job::Evolve { .. } => Ok(JobOutcome::idle()),
        }
    }
}

/// Background maintenance for one standalone [`UmziIndex`] — the successor
/// of the per-level polling `Maintainer`: event-driven merges (the index's
/// build and evolve paths enqueue jobs through its maintenance hook) plus
/// the periodic janitor.
pub struct IndexDaemon {
    daemon: Arc<MaintenanceDaemon>,
    index: Arc<UmziIndex>,
}

impl IndexDaemon {
    /// Spawn the daemon with `config` and wire the index's maintenance hook
    /// to it; fails on an invalid configuration instead of panicking
    /// mid-spawn.
    pub fn spawn(index: Arc<UmziIndex>, config: MaintenanceConfig) -> crate::Result<IndexDaemon> {
        config.validate()?;
        let executor = Arc::new(IndexExecutor {
            index: Arc::clone(&index),
            adaptive_cache: config.adaptive_cache,
        });
        let daemon = MaintenanceDaemon::spawn(executor, config);
        {
            let daemon = Arc::clone(&daemon);
            index.set_maintenance_hook(Some(Arc::new(move |ev: MaintEvent| match ev {
                MaintEvent::RunBuilt { level } => {
                    daemon.enqueue(Job::Merge { shard: 0, level });
                }
                MaintEvent::EvolveApplied { level, .. } => {
                    daemon.enqueue(Job::Merge { shard: 0, level });
                    daemon.enqueue(Job::RetireDeprecatedBlocks { shard: 0 });
                }
            })));
        }
        // Catch up on whatever structure already exists (recovery).
        for level in 0..=index.config().max_level() {
            daemon.enqueue(Job::Merge { shard: 0, level });
        }
        Ok(IndexDaemon { daemon, index })
    }

    /// The underlying daemon (stats, enqueue, backpressure).
    pub fn daemon(&self) -> &Arc<MaintenanceDaemon> {
        &self.daemon
    }

    /// Snapshot the daemon's statistics.
    pub fn stats(&self) -> MaintenanceStats {
        self.daemon.stats()
    }

    /// Drain the queue and stop the threads.
    pub fn shutdown(self) {
        // Unhook first so late builds don't enqueue into a closed queue.
        self.index.set_maintenance_hook(None);
        self.daemon.shutdown();
    }
}

impl Drop for IndexDaemon {
    fn drop(&mut self) {
        self.index.set_maintenance_hook(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MergePolicy, UmziConfig};
    use std::time::Duration;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_run::{IndexEntry, Rid, ZoneId};
    use umzi_storage::TieredStorage;

    fn test_index(k: usize, t: u64) -> Arc<UmziIndex> {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("k", ColumnType::Int64)
                .sort("s", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        let mut cfg = UmziConfig::two_zone("idx");
        cfg.merge = MergePolicy { k, t };
        UmziIndex::create(storage, def, cfg).unwrap()
    }

    fn add_groom(idx: &UmziIndex, block: u64, n: i64) {
        let es: Vec<IndexEntry> = (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i)],
                    &[Datum::Int64(block as i64)],
                    block * 100 + i as u64,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(es, block, block).unwrap();
    }

    /// Ported from the old `Maintainer` test: builds trigger background
    /// merges on worker threads, nothing is lost, and shutdown drains the
    /// graveyard work.
    #[test]
    fn background_merges_happen() {
        let idx = test_index(2, 1000);
        let daemon = IndexDaemon::spawn(
            Arc::clone(&idx),
            MaintenanceConfig {
                workers: 2,
                janitor_interval: Duration::from_millis(5),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        )
        .unwrap();

        for b in 1..=8u64 {
            add_groom(&idx, b, 20);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if idx.counters().merges.load(Ordering::Relaxed) >= 3 && daemon.daemon().is_idle() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        let s = idx.stats();
        assert!(s.merges >= 3, "background merges: {}", s.merges);
        assert_eq!(s.total_entries, 160, "no entries lost");
        assert!(stats.kind(JobKind::Merge).runs >= 3);
        assert!(stats.kind(JobKind::Merge).items_moved > 0);
        // With every thread stopped one collection drains the graveyard.
        idx.collect_garbage().unwrap();
        assert_eq!(idx.graveyard_len(), 0);
    }

    #[test]
    fn shutdown_drains_queue() {
        let idx = test_index(2, 2);
        let daemon = IndexDaemon::spawn(
            Arc::clone(&idx),
            MaintenanceConfig {
                workers: 1,
                janitor_interval: Duration::from_secs(3600),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        )
        .unwrap();
        for b in 1..=12u64 {
            add_groom(&idx, b, 10);
        }
        let inner = Arc::clone(daemon.daemon());
        daemon.shutdown();
        assert!(inner.is_idle(), "graceful shutdown leaves the queue empty");
        assert!(
            !inner.enqueue(Job::Groom { shard: 0 }),
            "closed after shutdown"
        );
        // Drained queue ⇒ all triggered merges actually ran.
        assert!(idx.stats().merges >= 4);
    }

    /// Fails each job a fixed number of times before succeeding; a
    /// negative-testing executor for the retry/quarantine pipeline.
    struct FlakyExecutor {
        failures_per_job: u64,
        attempts: AtomicU64,
        successes: AtomicU64,
    }

    use std::sync::atomic::AtomicU64;

    impl JobExecutor for FlakyExecutor {
        fn shard_count(&self) -> usize {
            1
        }

        fn execute(&self, job: Job) -> JobResult {
            // The janitor tick enqueues retire jobs on its own; keep the
            // flakiness (and the counters) scoped to the groom under test.
            if job.kind() != JobKind::Groom {
                return Ok(JobOutcome::idle());
            }
            let n = self.attempts.fetch_add(1, Ordering::SeqCst);
            if n < self.failures_per_job {
                Err(format!("injected failure #{n}").into())
            } else {
                self.successes.fetch_add(1, Ordering::SeqCst);
                Ok(JobOutcome {
                    did_work: true,
                    ..JobOutcome::default()
                })
            }
        }
    }

    fn flaky_config() -> MaintenanceConfig {
        MaintenanceConfig {
            workers: 1,
            janitor_interval: Duration::from_secs(3600),
            adaptive_cache: false,
            job_retries: 2,
            job_retry_backoff: Duration::from_millis(1),
            quarantine_probe_interval: Duration::from_millis(20),
            ..MaintenanceConfig::default()
        }
    }

    #[test]
    fn failed_jobs_retry_with_backoff_then_succeed() {
        let executor = Arc::new(FlakyExecutor {
            failures_per_job: 2,
            attempts: AtomicU64::new(0),
            successes: AtomicU64::new(0),
        });
        let daemon = MaintenanceDaemon::spawn(Arc::clone(&executor) as _, flaky_config());
        daemon.enqueue(Job::Groom { shard: 0 });

        let deadline = Instant::now() + Duration::from_secs(5);
        while executor.successes.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        assert_eq!(executor.successes.load(Ordering::SeqCst), 1);
        let groom = stats.kind(JobKind::Groom);
        assert_eq!(groom.failures, 2);
        assert_eq!(groom.retries, 2, "both failures were within the budget");
        assert_eq!(groom.quarantined, 0);
        assert!(!stats.degraded);
        assert_eq!(stats.quarantined_now, 0);
    }

    #[test]
    fn persistent_failure_quarantines_then_probe_recovers() {
        // Fail far past the retry budget (2), so the job quarantines; the
        // janitor's slow probe eventually hits the success threshold and
        // releases it.
        let executor = Arc::new(FlakyExecutor {
            failures_per_job: 5,
            attempts: AtomicU64::new(0),
            successes: AtomicU64::new(0),
        });
        let daemon = MaintenanceDaemon::spawn(Arc::clone(&executor) as _, flaky_config());
        daemon.enqueue(Job::Groom { shard: 0 });

        // Phase 1: the job must land in quarantine (3 attempts: initial +
        // 2 retries, all failing).
        let deadline = Instant::now() + Duration::from_secs(5);
        while !daemon.is_degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(daemon.is_degraded(), "job should quarantine");
        let mid = daemon.stats();
        assert_eq!(mid.quarantined_now, 1);
        assert_eq!(mid.kind(JobKind::Groom).quarantined, 1);
        assert_eq!(mid.quarantined_jobs.len(), 1);
        assert_eq!(mid.quarantined_jobs[0].job, Job::Groom { shard: 0 });
        assert!(mid.quarantined_jobs[0].last_error.contains("injected"));

        // Phase 2: quarantine probes keep re-running the job; once the
        // executor starts succeeding the daemon recovers.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.is_degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        assert_eq!(executor.successes.load(Ordering::SeqCst), 1);
        assert!(!stats.degraded, "probe success releases the quarantine");
        assert_eq!(stats.quarantined_now, 0);
        assert_eq!(
            stats.kind(JobKind::Groom).quarantined,
            1,
            "the quarantine transition is counted once"
        );
    }

    #[test]
    fn stats_surface_queue_and_dedup() {
        let idx = test_index(100, 1000); // merges never fire
        let daemon = IndexDaemon::spawn(
            Arc::clone(&idx),
            MaintenanceConfig {
                workers: 1,
                janitor_interval: Duration::from_secs(3600),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        )
        .unwrap();
        for b in 1..=4u64 {
            add_groom(&idx, b, 5);
        }
        assert!(daemon.daemon().wait_idle(Duration::from_secs(5)));
        let s = daemon.stats();
        assert!(s.enqueued > 0);
        assert_eq!(s.queue_depth, 0);
        assert!(s.peak_queue_depth >= 1);
        daemon.shutdown();
    }
}
