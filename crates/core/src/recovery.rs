//! Index recovery (§5.5).
//!
//! *"To recover an index, we mainly need to reconstruct run lists based on
//! runs stored in shared storage, and cleanup merged and incomplete runs if
//! any. ... Runs are first sorted in descending order of end groomed block
//! IDs, and are added to the run list one by one. If multiple runs have
//! overlapping groomed block IDs, the one with largest range is selected,
//! while the rest are simply deleted since they have already been merged."*
//!
//! Non-persisted levels (§6.1) are simply *absent* after a crash; their
//! persisted ancestor runs are still in shared storage, are no longer
//! covered by any surviving run, and therefore re-enter the lists through
//! the same overlap rule. Level 0 being always persisted guarantees no run
//! ever needs rebuilding from groomed data blocks.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use umzi_encoding::IndexDef;
use umzi_run::{KeyLayout, Run};
use umzi_storage::TieredStorage;

use crate::config::UmziConfig;
use crate::index::UmziIndex;
use crate::manifest::Manifest;
use crate::Result;

impl UmziIndex {
    /// Rebuild an index instance from shared storage after a crash.
    pub fn recover(
        storage: Arc<TieredStorage>,
        def: Arc<IndexDef>,
        config: UmziConfig,
    ) -> Result<Arc<UmziIndex>> {
        Self::validate(&storage, &config)?;
        let index = Self::empty(Arc::clone(&storage), def, config);

        // Durable state from the newest valid manifest.
        if let Some(m) = Manifest::load_latest(&storage, &index.config.manifest_prefix())? {
            index.indexed_psn.store(m.indexed_psn, Ordering::Release);
            index
                .next_run_id
                .store(m.next_run_id.max(1), Ordering::Release);
            index.manifest_seq.store(m.seq, Ordering::Release);
            index
                .cached_level
                .store(m.current_cached_level, Ordering::Release);
            for (i, w) in m.watermarks.iter().enumerate() {
                if let Some(slot) = index.watermarks.get(i) {
                    slot.store(*w, Ordering::Release);
                }
            }
        }

        // Open every run under the prefix; delete unreadable (incomplete)
        // objects — a crash mid-write leaves a torn run that the checksum
        // rejects.
        let layout = KeyLayout::new(Arc::clone(&index.def));
        let names = storage.with_retry_as(umzi_storage::OpClass::Manifest, || {
            storage.shared().list(&index.config.run_prefix())
        })?;
        let mut per_zone: Vec<Vec<Arc<Run>>> = index.zones.iter().map(|_| Vec::new()).collect();
        let mut max_run_id = 0u64;
        for name in names {
            // A torn put lands a strict prefix whose header may still parse;
            // verify_tail proves the data blocks the header promises are
            // actually there before the run is trusted.
            let opened = Run::open(Arc::clone(&storage), &name, layout.clone()).and_then(|run| {
                run.verify_tail()?;
                Ok(run)
            });
            match opened {
                Ok(run) => {
                    max_run_id = max_run_id.max(run.run_id());
                    match index.config.zone_of_level(run.level()) {
                        Some(zi) => per_zone[zi].push(Arc::new(run)),
                        None => {
                            // Level no longer configured: treat as obsolete.
                            let _ = storage.delete_object(
                                storage.open_object(&name, 0).expect("object exists"),
                            );
                        }
                    }
                }
                Err(e) if e.indicates_bad_object() => {
                    // Incomplete/corrupt run: clean it up (also frees the
                    // name — shared storage is create-once).
                    if let Ok(h) = storage.open_object(&name, 0) {
                        let _ = storage.delete_object(h);
                    }
                }
                // Storage is sick (transient budget exhausted, store down) or
                // the definition doesn't match: deleting would lose data —
                // fail the recovery instead.
                Err(e) => return Err(e.into()),
            }
        }
        index
            .next_run_id
            .fetch_max(max_run_id + 1, Ordering::AcqRel);

        // Per-zone overlap resolution: widest run wins.
        let mut kept_per_zone: Vec<Vec<Arc<Run>>> = Vec::with_capacity(per_zone.len());
        for runs in per_zone.iter_mut() {
            // Descending end ID; ties broken by widest range first.
            runs.sort_by(|a, b| {
                let (alo, ahi) = a.groomed_range();
                let (blo, bhi) = b.groomed_range();
                bhi.cmp(&ahi).then_with(|| (bhi - blo).cmp(&(ahi - alo)))
            });
            let mut kept: Vec<Arc<Run>> = Vec::new();
            let mut min_lo_kept = u64::MAX;
            for run in runs.drain(..) {
                let (lo, hi) = run.groomed_range();
                let first = kept.is_empty();
                if first || hi < min_lo_kept {
                    min_lo_kept = min_lo_kept.min(lo);
                    kept.push(run);
                } else {
                    // Covered by an already-kept (wider) run: it was merged.
                    storage.delete_object(run.handle())?;
                }
            }
            kept_per_zone.push(kept);
        }

        // Heal the crash window between evolve steps 1 and 2: surviving
        // later-zone runs may carry watermarks/PSNs newer than the manifest.
        for (zi, kept) in kept_per_zone.iter().enumerate().skip(1) {
            if let Some(max_hi) = kept.iter().map(|r| r.groomed_range().1).max() {
                for boundary in 0..zi.min(index.watermarks.len()) {
                    // Watermarks are exclusive bounds.
                    index.watermarks[boundary].fetch_max(max_hi + 1, Ordering::AcqRel);
                }
            }
            let max_psn = kept.iter().map(|r| r.header().psn).max().unwrap_or(0);
            index.indexed_psn.fetch_max(max_psn, Ordering::AcqRel);
        }

        // Apply the (possibly healed) watermark GC to earlier zones, then
        // publish the lists (oldest first so the head ends newest).
        for (zi, kept) in kept_per_zone.into_iter().enumerate() {
            let watermark = if zi < index.watermarks.len() {
                index.watermark(zi)
            } else {
                0
            };
            for run in kept.into_iter().rev() {
                if zi < index.watermarks.len() && run.groomed_range().1 < watermark {
                    storage.delete_object(run.handle())?;
                    continue;
                }
                // Merge-policy state is not persisted; sealing everything is
                // safe (the policy simply opens fresh active runs).
                run.seal();
                index.zones[zi].list.push_front(run);
            }
        }

        index.persist_manifest()?;
        Ok(Arc::new(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MergePolicy, UmziConfig};
    use crate::evolve::EvolveNotice;
    use crate::query::RangeQuery;
    use crate::reconcile::ReconcileStrategy;
    use umzi_encoding::{ColumnType, Datum};
    use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};

    fn def() -> Arc<IndexDef> {
        Arc::new(
            IndexDef::builder("t")
                .equality("device", ColumnType::Int64)
                .sort("msg", ColumnType::Int64)
                .build()
                .unwrap(),
        )
    }

    fn cfg(non_persisted: Vec<u32>) -> UmziConfig {
        let mut c = UmziConfig::two_zone("idx");
        c.merge = MergePolicy { k: 2, t: 2 };
        c.non_persisted_levels = non_persisted;
        c
    }

    fn entry(idx: &UmziIndex, d: i64, m: i64, ts: u64) -> IndexEntry {
        IndexEntry::new(
            idx.layout(),
            &[Datum::Int64(d)],
            &[Datum::Int64(m)],
            ts,
            Rid::new(ZoneId::GROOMED, ts, 0),
            &[],
        )
        .unwrap()
    }

    fn total_visible_keys(idx: &UmziIndex, device: i64) -> usize {
        idx.range_scan(
            &RangeQuery {
                equality: vec![Datum::Int64(device)],
                lower: SortBound::Unbounded,
                upper: SortBound::Unbounded,
                query_ts: u64::MAX,
            },
            ReconcileStrategy::PriorityQueue,
        )
        .unwrap()
        .len()
    }

    #[test]
    fn recover_empty_index() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        drop(idx);
        storage.simulate_crash();
        let idx = UmziIndex::recover(storage, def(), cfg(vec![])).unwrap();
        assert_eq!(idx.run_count(), 0);
    }

    #[test]
    fn recover_rebuilds_lists_and_queries_match() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        for b in 1..=5u64 {
            let es = (0..20)
                .map(|i| entry(&idx, i % 4, b as i64 * 100 + i, b * 10))
                .collect();
            idx.build_groomed_run(es, b, b).unwrap();
        }
        idx.drain_merges().unwrap();
        idx.collect_garbage().unwrap();
        let before: Vec<(u64, u64)> = idx.zones()[0]
            .list
            .snapshot()
            .iter()
            .map(|r| r.groomed_range())
            .collect();
        let keys_before = total_visible_keys(&idx, 1);
        drop(idx);

        storage.simulate_crash();
        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        let after: Vec<(u64, u64)> = idx.zones()[0]
            .list
            .snapshot()
            .iter()
            .map(|r| r.groomed_range())
            .collect();
        assert_eq!(before, after, "run list structure must survive recovery");
        assert_eq!(total_visible_keys(&idx, 1), keys_before);
    }

    #[test]
    fn merged_leftovers_are_deleted_on_recovery() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        for b in 1..=2u64 {
            idx.build_groomed_run(vec![entry(&idx, 1, b as i64, b * 10)], b, b)
                .unwrap();
        }
        idx.merge_at(0).unwrap().unwrap();
        // Crash BEFORE garbage collection: inputs still in shared storage.
        assert_eq!(idx.graveyard_len(), 2);
        drop(idx);
        storage.simulate_crash();

        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        // Only the merged run survives; covered inputs were deleted.
        assert_eq!(idx.run_count(), 1);
        let runs = storage.shared().list("idx/runs/").unwrap();
        assert_eq!(runs.len(), 1, "covered inputs deleted: {runs:?}");
        assert_eq!(total_visible_keys(&idx, 1), 2);
    }

    #[test]
    fn non_persisted_runs_recover_via_ancestors() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![1])).unwrap();
        for b in 1..=2u64 {
            idx.build_groomed_run(vec![entry(&idx, 1, b as i64, b * 10)], b, b)
                .unwrap();
        }
        idx.merge_at(0).unwrap().unwrap(); // → non-persisted level-1 run
        assert_eq!(idx.run_count(), 1);
        drop(idx);
        storage.simulate_crash(); // the level-1 run is gone

        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![1])).unwrap();
        // The two persisted ancestors are back.
        assert_eq!(idx.run_count(), 2);
        assert_eq!(total_visible_keys(&idx, 1), 2, "no data lost");
    }

    #[test]
    fn evolve_state_recovers() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        idx.build_groomed_run(vec![entry(&idx, 1, 1, 10)], 1, 1)
            .unwrap();
        idx.build_groomed_run(vec![entry(&idx, 1, 2, 20)], 2, 2)
            .unwrap();
        idx.evolve(EvolveNotice {
            psn: 1,
            groomed_lo: 1,
            groomed_hi: 1,
            entries: vec![IndexEntry::new(
                idx.layout(),
                &[Datum::Int64(1)],
                &[Datum::Int64(1)],
                10,
                Rid::new(ZoneId::POST_GROOMED, 1, 0),
                &[],
            )
            .unwrap()],
        })
        .unwrap();
        idx.collect_garbage().unwrap();
        drop(idx);
        storage.simulate_crash();

        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        assert_eq!(idx.indexed_psn(), 1);
        assert_eq!(idx.covered_groomed_hi(0), Some(1));
        assert_eq!(idx.zones()[1].list.len(), 1);
        assert_eq!(total_visible_keys(&idx, 1), 2);
    }

    #[test]
    fn torn_run_object_is_cleaned_up() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        idx.build_groomed_run(vec![entry(&idx, 1, 1, 10)], 1, 1)
            .unwrap();
        drop(idx);
        // Simulate a torn write: a garbage object under the runs prefix.
        storage
            .shared()
            .put(
                "idx/runs/run-99999999999999999999",
                bytes::Bytes::from_static(b"torn"),
            )
            .unwrap();
        storage.simulate_crash();

        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        assert_eq!(idx.run_count(), 1);
        assert!(!storage.shared().exists("idx/runs/run-99999999999999999999"));
    }

    #[test]
    fn recovered_run_ids_do_not_collide() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        idx.build_groomed_run(vec![entry(&idx, 1, 1, 10)], 1, 1)
            .unwrap();
        drop(idx);
        storage.simulate_crash();
        let idx = UmziIndex::recover(Arc::clone(&storage), def(), cfg(vec![])).unwrap();
        // A new build must not clash with the recovered run's object name.
        idx.build_groomed_run(vec![entry(&idx, 1, 2, 20)], 2, 2)
            .unwrap();
        assert_eq!(idx.run_count(), 2);
    }
}
