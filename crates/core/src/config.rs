//! Umzi index configuration.
//!
//! The level/zone assignment is configurable, exactly as §4.3 describes:
//! *"The assignment of levels to zones are configurable in Umzi. For example
//! in Figure 3, levels 0 to 5 are configured as the groomed zone, while
//! levels 6 to 9 are configured as the post-groomed zone."*

use umzi_run::ZoneId;

use crate::error::UmziError;
use crate::Result;

/// The hybrid merge policy of §5.3 (similar to Dostoevsky's lazy leveling):
/// `K` bounds the number of inactive runs per level, `T` is the size ratio
/// at which a level's active run is sealed. `K = 1` degenerates to leveling,
/// large `K` approaches tiering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Maximum number of inactive (sealed) runs a level may hold before
    /// they are merged into the next level's active run.
    pub k: usize,
    /// Size ratio between adjacent levels: the active run of level `L` is
    /// sealed once it is `T×` the size of an inactive run from level `L−1`.
    pub t: u64,
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self { k: 4, t: 4 }
    }
}

/// A zone and its contiguous range of merge levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneConfig {
    /// Zone identity.
    pub zone: ZoneId,
    /// Lowest level of the zone.
    pub min_level: u32,
    /// Highest level of the zone (runs here are only removed by evolve/GC,
    /// never merged further).
    pub max_level: u32,
}

/// Cache-manager thresholds (§6.2). The storage hierarchy's caches (memory
/// tier, SSD tier, decoded-block cache) are shared by every index on the
/// node and are sized once, on [`umzi_storage::TieredConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// SSD-utilization fraction above which the manager purges runs,
    /// starting from the highest (oldest) levels.
    pub ssd_high_watermark: f64,
    /// SSD-utilization fraction below which the manager loads runs back,
    /// starting from the lowest purged level.
    pub ssd_low_watermark: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            ssd_high_watermark: 0.90,
            ssd_low_watermark: 0.70,
        }
    }
}

/// Read-path scan tuning: the partitioned parallel reconcile (§7.1.2's
/// priority-queue merge, split by key range across threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Upper bound on partitions (= merge threads) per range scan. `0`
    /// means auto: `available_parallelism`, capped at 8. `1` disables the
    /// partitioned path entirely. Values above the core count are honored
    /// — useful when scans are storage-latency-bound rather than CPU-bound.
    pub max_scan_partitions: usize,
    /// Estimated result rows (positioned-iterator entries across candidate
    /// runs) below which a scan always uses the sequential merge; the
    /// per-partition positioning and thread spawns only pay off on large
    /// scans.
    pub parallel_row_threshold: u64,
    /// Minimum estimated rows each partition of a parallel scan should
    /// cover: the partition count adapts to
    /// `min(partition_target, estimated_rows / min_partition_rows)` so a
    /// moderately sized scan no longer spawns a full complement of threads
    /// for tiny partitions. `0` behaves as `1` (no adaptive cap).
    pub min_partition_rows: u64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            max_scan_partitions: 0,
            parallel_row_threshold: 4096,
            min_partition_rows: 2048,
        }
    }
}

impl ScanConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.max_scan_partitions > 1024 {
            return Err(UmziError::Config(format!(
                "max_scan_partitions {} is absurd (cap is 1024)",
                self.max_scan_partitions
            )));
        }
        Ok(())
    }

    /// The partition target for one scan: the configured cap, or the core
    /// count (≤ 8) when auto.
    pub fn partition_target(&self) -> usize {
        if self.max_scan_partitions != 0 {
            return self.max_scan_partitions;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }

    /// The partition count for a scan expected to produce `estimated_rows`:
    /// the target, adaptively capped so every partition covers at least
    /// [`Self::min_partition_rows`] rows (a tiny partition wastes its
    /// thread spawn).
    pub fn adaptive_partitions(&self, estimated_rows: u64) -> usize {
        let target = self.partition_target();
        let floor = self.min_partition_rows.max(1);
        let by_rows = (estimated_rows / floor).max(1);
        target.min(usize::try_from(by_rows).unwrap_or(usize::MAX))
    }
}

/// Background-maintenance daemon tuning: worker pool, ingest backpressure
/// watermarks, throttling and the janitor cadence.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Worker threads draining the maintenance job queue.
    pub workers: usize,
    /// Ingest stalls when the level-0 run count reaches this many runs.
    pub l0_high_watermark: usize,
    /// Stalled ingest resumes once the level-0 run count is back at or
    /// below this. Keep it ≥ `merge.k − 1`: merges fire only at `K` sealed
    /// runs, so a lower setting is unreachable and writers would stall
    /// until evolve GC empties the zone.
    pub l0_low_watermark: usize,
    /// Ingest stalls when the serialized bytes outstanding in level-0 runs
    /// reach this many bytes — the **primary** backpressure signal: run
    /// count is blind to run size, while bytes track the actual un-merged
    /// backlog. `0` disables the byte gate (run count alone governs, the
    /// pre-existing behavior). The run-count watermarks stay armed as a
    /// secondary bound either way.
    pub l0_bytes_high_watermark: u64,
    /// Stalled ingest resumes only once level-0 bytes are back at or below
    /// this (and the run count is at or below its own low watermark).
    /// Ignored when `l0_bytes_high_watermark` is 0.
    pub l0_bytes_low_watermark: u64,
    /// Weighted-aging per-shard dequeue: the scheduler picks each worker's
    /// next job across per-shard queues with a priority score that decays
    /// as a job waits, so one hot shard's endless merge chain cannot
    /// starve another shard's groom indefinitely. `false` restores strict
    /// global (priority, FIFO) order.
    pub fair_dequeue: bool,
    /// Minimum pause a worker inserts after each job that did work — bounds
    /// the background IO/CPU share. `None` runs flat out.
    pub throttle: Option<std::time::Duration>,
    /// Cadence of the janitor tick (graveyard GC, deferred deprecated-block
    /// retirement, adaptive cache maintenance).
    pub janitor_interval: std::time::Duration,
    /// Whether the janitor runs adaptive SSD cache maintenance (§6.2).
    pub adaptive_cache: bool,
    /// Retries a failed job gets (re-enqueued with exponential backoff)
    /// before it is quarantined. 0 quarantines on the first failure.
    pub job_retries: u32,
    /// First-retry backoff for a failed job; doubles per attempt.
    pub job_retry_backoff: std::time::Duration,
    /// Cadence at which the janitor re-probes quarantined jobs.
    pub quarantine_probe_interval: std::time::Duration,
    /// How long a writer may sit behind the backpressure gate before it
    /// gets a `Backpressure` error instead of blocking further. `None`
    /// blocks indefinitely (pre-existing behavior; risks an unbounded hang
    /// when maintenance is quarantined).
    pub stall_timeout: Option<std::time::Duration>,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            l0_high_watermark: 12,
            l0_low_watermark: 6,
            l0_bytes_high_watermark: 256 << 20,
            l0_bytes_low_watermark: 128 << 20,
            fair_dequeue: true,
            throttle: None,
            janitor_interval: std::time::Duration::from_millis(100),
            adaptive_cache: true,
            job_retries: 3,
            job_retry_backoff: std::time::Duration::from_millis(10),
            quarantine_probe_interval: std::time::Duration::from_secs(1),
            stall_timeout: Some(std::time::Duration::from_secs(10)),
        }
    }
}

impl MaintenanceConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(UmziError::Config(
                "maintenance requires at least one worker".into(),
            ));
        }
        if self.l0_low_watermark > self.l0_high_watermark {
            return Err(UmziError::Config(format!(
                "maintenance watermarks must satisfy low ≤ high, got {} > {}",
                self.l0_low_watermark, self.l0_high_watermark
            )));
        }
        if self.l0_high_watermark == 0 {
            return Err(UmziError::Config(
                "l0_high_watermark must be ≥ 1 (0 would stall every write)".into(),
            ));
        }
        if self.l0_bytes_low_watermark > self.l0_bytes_high_watermark {
            return Err(UmziError::Config(format!(
                "maintenance byte watermarks must satisfy low ≤ high, got {} > {}",
                self.l0_bytes_low_watermark, self.l0_bytes_high_watermark
            )));
        }
        if self.stall_timeout == Some(std::time::Duration::ZERO) {
            return Err(UmziError::Config(
                "stall_timeout must be > 0 (use None to wait indefinitely)".into(),
            ));
        }
        Ok(())
    }
}

/// Full configuration of one Umzi index instance (one per table shard).
///
/// Storage knobs (retry, prefetch, telemetry, cache sizing) live on the
/// shared [`umzi_storage::TieredConfig`], and maintenance knobs on the
/// [`MaintenanceConfig`] handed to whatever spawns the daemon.
#[derive(Debug, Clone)]
pub struct UmziConfig {
    /// Index instance name; prefixes all storage object names.
    pub name: String,
    /// Offset-array width in bits (Figure 2b); 0 disables it. Ignored for
    /// indexes without equality columns.
    pub offset_bits: u8,
    /// Merge policy parameters.
    pub merge: MergePolicy,
    /// Zones with their level ranges, in data-age order (first zone receives
    /// freshly built runs at its `min_level`).
    pub zones: Vec<ZoneConfig>,
    /// Levels whose runs are NOT written to shared storage (§6.1). Level 0
    /// must be persisted so recovery never rebuilds runs from data blocks.
    pub non_persisted_levels: Vec<u32>,
    /// Cache-manager thresholds.
    pub cache: CacheConfig,
    /// Read-path scan tuning (partitioned parallel reconcile).
    pub scan: ScanConfig,
}

impl UmziConfig {
    /// The paper's two-zone layout: groomed = levels 0–5, post-groomed =
    /// levels 6–9 (Figure 3).
    pub fn two_zone(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            offset_bits: 10,
            merge: MergePolicy::default(),
            zones: vec![
                ZoneConfig {
                    zone: ZoneId::GROOMED,
                    min_level: 0,
                    max_level: 5,
                },
                ZoneConfig {
                    zone: ZoneId::POST_GROOMED,
                    min_level: 6,
                    max_level: 9,
                },
            ],
            non_persisted_levels: Vec::new(),
            cache: CacheConfig::default(),
            scan: ScanConfig::default(),
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.zones.is_empty() {
            return Err(UmziError::Config("at least one zone is required".into()));
        }
        if self.zones[0].min_level != 0 {
            return Err(UmziError::Config(
                "the first zone must start at level 0".into(),
            ));
        }
        let mut expected_next = 0;
        for z in &self.zones {
            if z.min_level != expected_next {
                return Err(UmziError::Config(format!(
                    "zone {} levels must be contiguous: expected min_level {expected_next}, got {}",
                    z.zone, z.min_level
                )));
            }
            if z.max_level < z.min_level {
                return Err(UmziError::Config(format!(
                    "zone {} has max_level {} < min_level {}",
                    z.zone, z.max_level, z.min_level
                )));
            }
            expected_next = z.max_level + 1;
        }
        let mut seen = std::collections::HashSet::new();
        for z in &self.zones {
            if !seen.insert(z.zone) {
                return Err(UmziError::Config(format!("duplicate zone {}", z.zone)));
            }
        }
        if self.non_persisted_levels.contains(&0) {
            // §6.1: "Umzi requires level 0 must be persisted to ensure that
            // we do not need to rebuild any index runs from groomed data
            // blocks during recovery."
            return Err(UmziError::Config("level 0 must be persisted (§6.1)".into()));
        }
        let max_level = self.zones.last().expect("non-empty").max_level;
        for &l in &self.non_persisted_levels {
            if l > max_level {
                return Err(UmziError::Config(format!(
                    "non-persisted level {l} exceeds max level {max_level}"
                )));
            }
        }
        if self.merge.k == 0 || self.merge.t == 0 {
            return Err(UmziError::Config(
                "merge policy requires K ≥ 1 and T ≥ 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.cache.ssd_low_watermark)
            || !(0.0..=1.0).contains(&self.cache.ssd_high_watermark)
            || self.cache.ssd_low_watermark > self.cache.ssd_high_watermark
        {
            return Err(UmziError::Config(
                "cache watermarks must satisfy 0 ≤ low ≤ high ≤ 1".into(),
            ));
        }
        if self.offset_bits > 24 {
            return Err(UmziError::Config("offset_bits must be ≤ 24".into()));
        }
        self.scan.validate()
    }

    /// The zone index owning `level`, if any.
    pub fn zone_of_level(&self, level: u32) -> Option<usize> {
        self.zones
            .iter()
            .position(|z| (z.min_level..=z.max_level).contains(&level))
    }

    /// Whether runs at `level` are persisted to shared storage.
    pub fn is_persisted_level(&self, level: u32) -> bool {
        !self.non_persisted_levels.contains(&level)
    }

    /// The highest configured level.
    pub fn max_level(&self) -> u32 {
        self.zones.last().map(|z| z.max_level).unwrap_or(0)
    }

    /// Storage-object name for a run.
    pub fn run_object_name(&self, run_id: u64) -> String {
        format!("{}/runs/run-{run_id:020}", self.name)
    }

    /// Storage-object prefix for this index's runs.
    pub fn run_prefix(&self) -> String {
        format!("{}/runs/", self.name)
    }

    /// Storage-object name for a manifest.
    pub fn manifest_object_name(&self, seq: u64) -> String {
        format!("{}/manifest/manifest-{seq:020}", self.name)
    }

    /// Storage-object prefix for this index's manifests.
    pub fn manifest_prefix(&self) -> String {
        format!("{}/manifest/", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_two_zone_is_valid() {
        let c = UmziConfig::two_zone("t");
        c.validate().unwrap();
        assert_eq!(c.zone_of_level(0), Some(0));
        assert_eq!(c.zone_of_level(5), Some(0));
        assert_eq!(c.zone_of_level(6), Some(1));
        assert_eq!(c.zone_of_level(9), Some(1));
        assert_eq!(c.zone_of_level(10), None);
        assert_eq!(c.max_level(), 9);
    }

    #[test]
    fn rejects_non_persisted_level_zero() {
        let mut c = UmziConfig::two_zone("t");
        c.non_persisted_levels = vec![0];
        assert!(c.validate().is_err());
        c.non_persisted_levels = vec![1, 2];
        c.validate().unwrap();
        assert!(!c.is_persisted_level(1));
        assert!(c.is_persisted_level(0));
        assert!(c.is_persisted_level(3));
    }

    #[test]
    fn rejects_gapped_zones() {
        let mut c = UmziConfig::two_zone("t");
        c.zones[1].min_level = 7; // gap at 6
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_merge_params() {
        let mut c = UmziConfig::two_zone("t");
        c.merge.k = 0;
        assert!(c.validate().is_err());
        c.merge = MergePolicy { k: 1, t: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_watermarks() {
        let mut c = UmziConfig::two_zone("t");
        c.cache.ssd_low_watermark = 0.95;
        c.cache.ssd_high_watermark = 0.90;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_maintenance_config() {
        let bad = |c: MaintenanceConfig| assert!(c.validate().is_err(), "{c:?}");
        bad(MaintenanceConfig {
            workers: 0,
            ..MaintenanceConfig::default()
        });
        bad(MaintenanceConfig {
            l0_high_watermark: 2,
            l0_low_watermark: 4,
            ..MaintenanceConfig::default()
        });
        bad(MaintenanceConfig {
            l0_high_watermark: 0,
            l0_low_watermark: 0,
            ..MaintenanceConfig::default()
        });
        // Byte watermarks: low ≤ high, and zero-high means disabled — which
        // makes a nonzero low nonsensical (it is > high and rejected).
        bad(MaintenanceConfig {
            l0_bytes_high_watermark: 1 << 20,
            l0_bytes_low_watermark: 2 << 20,
            ..MaintenanceConfig::default()
        });
        bad(MaintenanceConfig {
            l0_bytes_high_watermark: 0,
            l0_bytes_low_watermark: 1,
            ..MaintenanceConfig::default()
        });
        MaintenanceConfig {
            l0_bytes_high_watermark: 0,
            l0_bytes_low_watermark: 0, // byte gate disabled
            ..MaintenanceConfig::default()
        }
        .validate()
        .unwrap();
        MaintenanceConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_scan_config() {
        let mut c = UmziConfig::two_zone("t");
        c.scan.max_scan_partitions = 4096;
        assert!(c.validate().is_err());
        c.scan.max_scan_partitions = 1024;
        c.validate().unwrap();
    }

    #[test]
    fn scan_partition_target_resolution() {
        let mut s = ScanConfig::default();
        assert!(s.partition_target() >= 1, "auto resolves to the core count");
        s.max_scan_partitions = 1;
        assert_eq!(s.partition_target(), 1);
        // Explicit values above the core count are honored (I/O-bound scans).
        s.max_scan_partitions = 64;
        assert_eq!(s.partition_target(), 64);
    }

    #[test]
    fn adaptive_partitions_respect_min_rows_floor() {
        let s = ScanConfig {
            max_scan_partitions: 8,
            parallel_row_threshold: 1,
            min_partition_rows: 1000,
        };
        assert_eq!(s.adaptive_partitions(500), 1, "sub-floor scans don't split");
        assert_eq!(s.adaptive_partitions(3500), 3);
        assert_eq!(s.adaptive_partitions(1 << 30), 8, "target still caps");
        // A zero floor behaves as 1 (no adaptive cap).
        let s = ScanConfig {
            min_partition_rows: 0,
            ..s
        };
        assert_eq!(s.adaptive_partitions(8), 8);
    }

    #[test]
    fn object_names_are_prefix_scoped() {
        let c = UmziConfig::two_zone("shard-7");
        assert!(c.run_object_name(3).starts_with(&c.run_prefix()));
        assert!(c.manifest_object_name(1).starts_with(&c.manifest_prefix()));
        // Zero-padded so lexicographic order == numeric order.
        assert!(c.run_object_name(9) < c.run_object_name(10));
    }
}
