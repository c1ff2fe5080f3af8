//! Inputs and the reference model: seeded key streams, the key → row
//! mapping of the `iot` table, and the expected row of every key.

use std::collections::HashSet;
use std::sync::Arc;

use umzi_encoding::Datum;
use umzi_storage::{InMemoryObjectStore, LatencyModel, SharedStorage, TieredConfig, TieredStorage};
use umzi_wildfire::{iot_table, EngineConfig, RecordView, Result, WildfireEngine};
use umzi_workload::IotUpdateModel;

/// Bytes of user data in one `iot` row: four `Int64` columns.
pub const USER_ROW_BYTES: u64 = 32;

/// Shards of the `iot` table in every workload.
pub const SHARDS: usize = 2;

/// Rows per IoT-model cycle, in set-up and for the writers.
pub const CYCLE_ROWS: usize = 4000;

/// Update fraction `p` of the §8.4 IoT model.
pub const P_UPDATE: f64 = 0.10;

/// SplitMix64: a small, fast, seedable generator, so every input stream is
/// a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ = 0.99) over `[0, n)`, by inverse CDF over ranks. Ranks map to
/// keys through a multiplicative permutation, so hot keys are spread over
/// devices, runs and shards instead of clustering at the low keys.
pub struct Zipf {
    cdf: Vec<f64>,
    mult: u64,
}

impl Zipf {
    pub fn new(n: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(0.99);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut mult = 2_654_435_761 % n.max(2);
        while gcd(mult, n) != 1 {
            mult += 1;
        }
        Zipf { cdf, mult }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u) as u64;
        let n = self.cdf.len() as u64;
        (rank.min(n - 1) as u128 * self.mult as u128 % n as u128) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Dense key `k` lives at device `k % devices`, message `k / devices`.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    pub devices: u64,
}

impl KeySpace {
    pub fn row(&self, key: u64, version: i64) -> Vec<Datum> {
        vec![
            Datum::Int64((key % self.devices) as i64),
            Datum::Int64((key / self.devices) as i64),
            Datum::Int64(20190326 + (key % 7) as i64),
            Datum::Int64(version),
        ]
    }

    /// `(equality, sort)` values of the primary index for `key`.
    pub fn probe(&self, key: u64) -> (Vec<Datum>, Vec<Datum>) {
        (
            vec![Datum::Int64((key % self.devices) as i64)],
            vec![Datum::Int64((key / self.devices) as i64)],
        )
    }

    /// The row's version (its payload column), when the row is `key`'s.
    pub fn version_of(&self, key: u64, row: &[Datum]) -> Option<i64> {
        match row {
            [Datum::Int64(d), Datum::Int64(m), Datum::Int64(date), Datum::Int64(v)]
                if *d == (key % self.devices) as i64
                    && *m == (key / self.devices) as i64
                    && *date == 20190326 + (key % 7) as i64 =>
            {
                Some(*v)
            }
            _ => None,
        }
    }
}

/// The reference model of a static dataset: the newest acknowledged
/// version of every key. Versions are global write sequence numbers, stored
/// in the row's `payload` column, so a row names the write it came from.
pub struct Model {
    pub space: KeySpace,
    versions: Vec<i64>,
    next_version: i64,
}

impl Model {
    pub fn new(devices: u64) -> Model {
        Model {
            space: KeySpace { devices },
            versions: Vec::new(),
            next_version: 1,
        }
    }

    pub fn keys(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Messages per device that every device holds (dense keys).
    pub fn full_msgs(&self) -> u64 {
        self.keys() / self.space.devices
    }

    pub fn next_version(&self) -> i64 {
        self.next_version
    }

    pub fn expected_row(&self, key: u64) -> Vec<Datum> {
        self.space.row(key, self.versions[key as usize])
    }

    /// Rows of device `device`, messages `[lo, lo + len)`, in key order.
    pub fn expected_scan(&self, device: u64, lo: u64, len: u64) -> Vec<Vec<Datum>> {
        (lo..lo + len)
            .map(|m| self.expected_row(m * self.space.devices + device))
            .collect()
    }

    /// Check an engine answer for `key` against the model.
    pub fn check_get(&self, key: u64, got: Option<&RecordView>) -> std::result::Result<(), String> {
        match got {
            Some(v) if v.row == self.expected_row(key) => Ok(()),
            Some(v) => Err(format!(
                "get({key}) returned {:?}, expected {:?}",
                v.row,
                self.expected_row(key)
            )),
            None => Err(format!("get({key}) found nothing; the key was acked")),
        }
    }

    /// Check the rows a scan returned against the model.
    pub fn check_rows(
        &self,
        device: u64,
        lo: u64,
        len: u64,
        got: &[&[Datum]],
    ) -> std::result::Result<(), String> {
        let want = self.expected_scan(device, lo, len);
        if got.len() != want.len() {
            return Err(format!(
                "scan(device {device}, msgs {lo}..{}) returned {} rows, expected {}",
                lo + len,
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(&want) {
            if *g != w.as_slice() {
                return Err(format!(
                    "scan(device {device}, msgs {lo}..{}) returned {g:?}, expected {w:?}",
                    lo + len
                ));
            }
        }
        Ok(())
    }
}

/// One IoT-model batch as rows, with a key repeated within the batch kept
/// once (the model updates recent keys and may draw one twice).
pub fn iot_batch(gen: &mut IotUpdateModel, key_offset: u64) -> Vec<u64> {
    let mut seen = HashSet::new();
    gen.next_cycle()
        .into_iter()
        .map(|(k, _)| k + key_offset)
        .filter(|k| seen.insert(*k))
        .collect()
}

/// Load `cycles` IoT-model cycles of `rows_per_cycle` rows, grooming after
/// each so that every cycle becomes one level-0 run per shard.
pub fn load(
    engine: &WildfireEngine,
    model: &mut Model,
    cycles: usize,
    rows_per_cycle: usize,
    seed: u64,
) -> Result<()> {
    let mut gen = IotUpdateModel::new(P_UPDATE, rows_per_cycle, seed);
    for _ in 0..cycles {
        let keys = iot_batch(&mut gen, 0);
        let mut rows = Vec::with_capacity(keys.len());
        for k in keys {
            let v = model.next_version;
            model.next_version += 1;
            if k as usize == model.versions.len() {
                model.versions.push(v);
            } else {
                model.versions[k as usize] = v;
            }
            rows.push(model.space.row(k, v));
        }
        engine.upsert_many(rows)?;
        engine.groom_all()?;
    }
    Ok(())
}

/// A tiered hierarchy over `store`, with the shared-storage latency and
/// latency mode of `config`.
pub fn storage(store: &Arc<InMemoryObjectStore>, config: TieredConfig) -> Arc<TieredStorage> {
    let shared = SharedStorage::new(
        Arc::clone(store) as Arc<dyn umzi_storage::ObjectStore>,
        LatencyModel::new(config.shared_latency, config.latency_mode),
    );
    Arc::new(TieredStorage::new(shared, config))
}

/// The engine configuration every workload starts from: the `iot` table's
/// 2 shards and the default maintenance daemon (started only where a
/// workload runs daemons).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        n_shards: SHARDS,
        ..EngineConfig::default()
    }
}

pub fn create(storage: Arc<TieredStorage>) -> Result<Arc<WildfireEngine>> {
    WildfireEngine::create(storage, Arc::new(iot_table()), engine_config())
}

pub fn recover(storage: Arc<TieredStorage>) -> Result<Arc<WildfireEngine>> {
    WildfireEngine::recover(storage, Arc::new(iot_table()), engine_config())
}
