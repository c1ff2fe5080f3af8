//! Searching a single run (§7.1.1).
//!
//! *"The query first locates the first matching key using binary search with
//! the concatenated lower bound ... If the offset array is available, the
//! initial search range can be narrowed down by computing the most
//! significant n bits of the hash value ... index entries are then iterated
//! until the concatenated upper bound is reached. During the iteration, we
//! further filter out entries failing the timestamp predicate beginTS ≤
//! queryTS. For the remaining entries, we simply return for each key the
//! entry with the largest beginTS, which is straightforward since entries
//! are sorted on the index key and descending order of beginTS."*

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use umzi_storage::AccessPattern;

use crate::entry::EntryRef;
use crate::key::KeyLayout;
use crate::reader::{DataBlock, Run};
use crate::rid::Rid;
use crate::Result;

/// One query result from a single run: the newest visible version of one
/// logical key within that run.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// Full entry key.
    pub key: Bytes,
    /// Entry value (`RID ∥ included`).
    pub value: Bytes,
    /// The version timestamp.
    pub begin_ts: u64,
}

impl SearchHit {
    /// The logical key (shared by all versions of one record).
    pub fn logical_key(&self) -> &[u8] {
        KeyLayout::logical_key(&self.key)
    }

    /// Decode the RID.
    pub fn rid(&self) -> Result<Rid> {
        Rid::decode(&self.value)
    }
}

/// Search operations over one opened run.
pub struct RunSearcher<'a> {
    run: &'a Run,
}

impl<'a> RunSearcher<'a> {
    /// Wrap a run.
    pub fn new(run: &'a Run) -> Self {
        Self { run }
    }

    /// Ordinal of the first entry whose key is ≥ `target`, within the
    /// offset-array bucket if a hint is given (the hint must be the bucket
    /// of the *query's hash value*; see [`Run::bucket_range`]). Returns
    /// `entry_count` when no such entry exists.
    ///
    /// Fast path: the run's in-memory fence index picks the single data
    /// block that can hold the answer, and the block's offset trailer is
    /// binary-searched in place — at most one block fetch, versus one per
    /// probe for [`Self::find_first_geq_scalar`]. Because the run is sorted
    /// on full keys, the bucket-narrowed answer is the global answer clamped
    /// into the bucket's ordinal range.
    pub fn find_first_geq(&self, target: &[u8], bucket: Option<u32>) -> Result<u64> {
        let (lo, hi) = self.run.bucket_range(bucket);
        Ok(self.run.locate_first_geq(target)?.clamp(lo, hi))
    }

    /// Reference implementation of [`Self::find_first_geq`]: binary search
    /// over entry ordinals, fetching a data block per probe. Kept for
    /// equivalence tests and as the "before" leg of read-path benchmarks.
    pub fn find_first_geq_scalar(&self, target: &[u8], bucket: Option<u32>) -> Result<u64> {
        let (mut lo, mut hi) = self.run.bucket_range(bucket);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.run.entry(mid)?;
            if e.key.as_ref() < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Stream the newest visible version of each logical key in
    /// `[lower, upper)` (byte bounds from [`KeyLayout::query_range`]),
    /// labelled as range-scan traffic for the decoded-block cache.
    pub fn scan(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        bucket: Option<u32>,
        query_ts: u64,
    ) -> Result<RunRangeIter<'a>> {
        self.scan_shared(
            lower,
            upper.map(Bytes::copy_from_slice),
            bucket,
            query_ts,
            AccessPattern::RangeScan,
        )
    }

    /// Like [`Self::scan`] but taking the upper bound as a refcounted
    /// [`Bytes`] — so multi-run queries share one allocation across all
    /// per-run iterators instead of copying the bound per run — and an
    /// explicit [`AccessPattern`] labelling every block fetch the iterator
    /// makes (positioning included) for the decoded cache's scan-resistant
    /// replacement.
    ///
    /// Both bounds resolve to *ordinals* up front through the fence index —
    /// one block fetch each — so iteration advances block-by-block with no
    /// per-entry `locate()` binary search and no per-entry upper-bound key
    /// comparison, and an empty range is detected without fetching any
    /// block beyond the positioning ones.
    pub fn scan_shared(
        &self,
        lower: &[u8],
        upper: Option<Bytes>,
        bucket: Option<u32>,
        query_ts: u64,
        pattern: AccessPattern,
    ) -> Result<RunRangeIter<'a>> {
        self.scan_shared_with_budget(lower, upper, bucket, query_ts, pattern, None)
    }

    /// Like [`Self::scan_shared`] but accepting a caller-owned streamed-bytes
    /// counter. A multi-run query passes one counter to every per-run
    /// iterator so the decoded cache's scan-bypass budget is spent per
    /// *query*, not per run — without it, a scan over R runs churns R× the
    /// configured budget through probation before bypass kicks in. `None`
    /// falls back to a private per-iterator counter (single-run callers).
    pub fn scan_shared_with_budget(
        &self,
        lower: &[u8],
        upper: Option<Bytes>,
        bucket: Option<u32>,
        query_ts: u64,
        pattern: AccessPattern,
        budget: Option<Arc<AtomicU64>>,
    ) -> Result<RunRangeIter<'a>> {
        let (blo, bhi) = self.run.bucket_range(bucket);
        let start = self
            .run
            .locate_first_geq_as(lower, pattern)?
            .clamp(blo, bhi);
        // Keys are globally sorted, so every entry below the upper bound
        // sits below its first-geq ordinal: the key comparison the iterator
        // used to do per entry collapses into this single fence jump.
        // Unbounded scans stop at the bucket (or run) end as before.
        let end = match &upper {
            Some(u) if start < self.run.entry_count() => {
                self.run.locate_first_geq_as(u, pattern)?
            }
            Some(_) => start,
            None => bhi,
        };
        Ok(RunRangeIter {
            run: self.run,
            ordinal: start,
            end,
            query_ts,
            cur_block: None,
            block_base: 0,
            last_group: Vec::new(),
            group_done: false,
            done: false,
            pattern,
            scan_bypass: if pattern == AccessPattern::RangeScan {
                self.run.storage().decoded_cache().scan_bypass_bytes()
            } else {
                0
            },
            streamed: (pattern == AccessPattern::RangeScan)
                .then(|| budget.unwrap_or_else(|| Arc::new(AtomicU64::new(0)))),
            prefetch_depth: if pattern == AccessPattern::RangeScan {
                self.run.storage().config().prefetch.depth
            } else {
                0
            },
            prefetched_until: 0,
            seeds: Vec::new(),
        })
    }

    /// Point lookup: the newest visible version of one logical key.
    /// `logical_prefix` is the full `hash ∥ eq ∥ sort` prefix.
    pub fn lookup(
        &self,
        logical_prefix: &[u8],
        bucket: Option<u32>,
        query_ts: u64,
    ) -> Result<Option<SearchHit>> {
        self.lookup_as(logical_prefix, bucket, query_ts, AccessPattern::PointLookup)
    }

    /// Like [`Self::lookup`] with an explicit cache hint: bulk validation
    /// probes issued on behalf of an analytical scan should be labelled
    /// [`AccessPattern::RangeScan`] so they cannot promote one-pass blocks
    /// into the protected segment.
    pub fn lookup_as(
        &self,
        logical_prefix: &[u8],
        bucket: Option<u32>,
        query_ts: u64,
        pattern: AccessPattern,
    ) -> Result<Option<SearchHit>> {
        let upper = crate::key::prefix_successor(logical_prefix);
        let mut iter = self.scan_shared(
            logical_prefix,
            upper.map(Bytes::from),
            bucket,
            query_ts,
            pattern,
        )?;
        match iter.next() {
            Some(Ok(hit)) => {
                // The scan's lower bound is a prefix; guard against a
                // neighbour key when the exact key is absent.
                if hit.key.starts_with(logical_prefix) {
                    Ok(Some(hit))
                } else {
                    Ok(None)
                }
            }
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }
}

/// Streaming iterator over one run's matches; yields at most one (the
/// newest visible) version per logical key. Both range bounds were resolved
/// to ordinals at construction, so iteration is pure forward movement: the
/// current block is held and advanced block-by-block, with no per-entry
/// `locate()` and no per-entry bound comparison.
pub struct RunRangeIter<'a> {
    run: &'a Run,
    ordinal: u64,
    /// First ordinal past the range (upper bound resolved via the fence
    /// index, or the bucket/run end for unbounded scans).
    end: u64,
    query_ts: u64,
    cur_block: Option<(u32, DataBlock)>,
    /// Ordinal of `cur_block`'s first entry.
    block_base: u64,
    last_group: Vec<u8>,
    group_done: bool,
    done: bool,
    /// Cache hint for every block this iterator fetches.
    pattern: AccessPattern,
    /// Once a range scan has streamed this many block bytes it stops
    /// inserting into the decoded cache (0 = never); snapshot of
    /// [`umzi_storage::DecodedBlockCache::scan_bypass_bytes`].
    scan_bypass: u64,
    /// Block bytes streamed so far — shared across the sub-range pieces of
    /// one partitioned scan, and (via
    /// [`RunSearcher::scan_shared_with_budget`]) across every run of one
    /// multi-run query, so the bypass budget is per query, not per run or
    /// partition. `None` for non-scan patterns (bypass can never apply), so
    /// point/batch probes skip the allocation on their hot path.
    streamed: Option<Arc<AtomicU64>>,
    /// Readahead depth (blocks kept staged ahead of the consumer), a
    /// snapshot of the storage's [`umzi_storage::PrefetchConfig`] taken at
    /// positioning time; 0 disables readahead (and is forced for non-scan
    /// patterns, whose access order the fence index does not predict).
    prefetch_depth: usize,
    /// First block number not yet requested for readahead, so overlapping
    /// triggers never re-request a block this iterator already asked for.
    prefetched_until: u32,
    /// Already-decoded blocks handed over by cut resolution
    /// ([`Run::locate_first_geq_with_block`] via
    /// [`Self::sub_range_seeded`]): a partition's first and/or last block,
    /// consumed in place of a fetch when iteration reaches them. At most
    /// two entries, so a linear scan beats any map.
    seeds: Vec<(u32, DataBlock, u64)>,
}

impl<'a> RunRangeIter<'a> {
    /// The resolved `[start, end)` ordinal bounds. On a freshly positioned
    /// iterator `start` is the first in-range ordinal, so `end − start` is
    /// an exact row estimate for scan planners (before visibility
    /// filtering).
    pub fn ordinal_bounds(&self) -> (u64, u64) {
        (self.ordinal, self.end)
    }

    /// Entries left to visit (exact before iteration starts).
    pub fn remaining_entries(&self) -> u64 {
        self.end.saturating_sub(self.ordinal)
    }

    /// The run this iterator reads.
    pub fn run(&self) -> &'a Run {
        self.run
    }

    /// Cheap sub-range re-bounding: a fresh iterator over the ordinal
    /// intersection `[lo, hi) ∩ [self.ordinal, self.end)`, without any
    /// re-positioning block reads — partitioned scans split one positioned
    /// iterator into per-partition pieces this way.
    ///
    /// Call on a freshly positioned iterator (before `next`). The caller
    /// must cut only at logical-key group boundaries (e.g. ordinals from
    /// [`Run::locate_first_geq`] of a logical key): the newest-visible
    /// filter restarts per piece, so a group straddling a cut would emit
    /// one version on each side.
    pub fn sub_range(&self, lo: u64, hi: u64) -> RunRangeIter<'a> {
        let start = lo.clamp(self.ordinal, self.end);
        let end = hi.clamp(start, self.end);
        RunRangeIter {
            run: self.run,
            ordinal: start,
            end,
            query_ts: self.query_ts,
            cur_block: None,
            block_base: 0,
            last_group: Vec::new(),
            group_done: false,
            done: false,
            pattern: self.pattern,
            scan_bypass: self.scan_bypass,
            streamed: self.streamed.clone(),
            prefetch_depth: self.prefetch_depth,
            prefetched_until: 0,
            seeds: Vec::new(),
        }
    }

    /// Like [`Self::sub_range`], but seeding the piece with already-decoded
    /// blocks — `(block_no, block, first_ordinal)` tuples, typically from
    /// [`Run::locate_first_geq_with_block`] resolving this piece's own cut
    /// boundaries. A mid-block cut makes one block both the last block of
    /// the partition ending there and the first block of the partition
    /// starting there; handing each side the resolution's decoded copy
    /// means the block is fetched once per scan, not once per side. Seeds
    /// for blocks the piece never reaches are simply dropped.
    pub fn sub_range_seeded(
        &self,
        lo: u64,
        hi: u64,
        seeds: Vec<(u32, DataBlock, u64)>,
    ) -> RunRangeIter<'a> {
        let mut piece = self.sub_range(lo, hi);
        piece.seeds = seeds;
        piece
    }

    /// Whether the next block fetch should skip cache admission: a range
    /// scan that has already streamed past the bypass threshold clearly
    /// exceeds the cache, so its tail stops churning probation (it still
    /// counts as scan traffic in the per-pattern statistics).
    fn bypassing(&self) -> bool {
        self.scan_bypass > 0
            && self
                .streamed
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed) >= self.scan_bypass)
    }

    /// Consume the cut-resolution seed for block `b`, if one was attached.
    /// Seeded blocks skip the fetch entirely and do not count against the
    /// scan-bypass budget — the resolution already paid for them, the scan
    /// streams no new bytes.
    fn take_seed(&mut self, b: u32) -> Option<DataBlock> {
        let i = self.seeds.iter().position(|(sb, _, _)| *sb == b)?;
        Some(self.seeds.swap_remove(i).1)
    }

    fn load_block(&mut self, b: u32) -> Result<DataBlock> {
        if let Some(block) = self.take_seed(b) {
            return Ok(block);
        }
        let block = if self.bypassing() {
            self.run.data_block_scan_bypassed(b)?
        } else {
            self.run.data_block_as(b, self.pattern)?
        };
        if let Some(streamed) = &self.streamed {
            streamed.fetch_add(block.size_bytes() as u64, Ordering::Relaxed);
        }
        Ok(block)
    }

    /// Refill the readahead pipeline when it has drained: stage the next
    /// `prefetch_depth` blocks past `cur` in one batch, never past the
    /// scan's last block. Refilling only on a drained pipeline keeps every
    /// batch at full depth — one batched (concurrently issued) fetch per
    /// `depth` consumed blocks, instead of degrading to one single-block
    /// batch per step once primed. Advisory: a failed batch is dropped — the
    /// demand path fetches (and retries) synchronously — so readahead can
    /// never poison the iterator.
    fn maybe_readahead(&mut self, cur: u32) {
        if self.prefetch_depth == 0 || self.end == 0 {
            return;
        }
        // A cancelled or expired query must not keep staging readahead —
        // abandon the refill; the demand path will surface the typed error
        // at the next block boundary.
        if umzi_storage::context::current_aborted() {
            return;
        }
        let next = cur.saturating_add(1);
        if next < self.prefetched_until {
            return; // staged blocks remain ahead of the consumer
        }
        // Last block the scan can touch, from the in-memory prefix counts.
        let Ok((last, _)) = self.run.locate(self.end - 1) else {
            return;
        };
        let from = next.max(self.prefetched_until);
        let to = last.min(cur.saturating_add(self.prefetch_depth as u32));
        if from > to {
            return;
        }
        let blocks: Vec<u32> = (from..=to).collect();
        self.prefetched_until = to + 1;
        let _ = self.run.prefetch_blocks(&blocks, self.bypassing());
    }

    fn fetch(&mut self, ordinal: u64) -> Result<EntryRef> {
        loop {
            if let Some((b, block)) = &self.cur_block {
                let n_in_block = u64::from(block.entry_count());
                if (self.block_base..self.block_base + n_in_block).contains(&ordinal) {
                    return block.entry((ordinal - self.block_base) as u16);
                }
                if ordinal == self.block_base + n_in_block && b + 1 < self.run.data_block_count() {
                    // Sequential advance: step into the next block without
                    // re-deriving the position. Block boundaries are the
                    // scan's cooperative cancellation checkpoints.
                    umzi_storage::context::check_current("run_block_advance")?;
                    // Top the readahead pipeline up first so the fetch
                    // below finds its block staged.
                    let next = b + 1;
                    self.block_base += n_in_block;
                    self.maybe_readahead(next);
                    let block = self.load_block(next)?;
                    self.cur_block = Some((next, block));
                    continue;
                }
            }
            // First positioning (or a non-sequential jump): one locate().
            umzi_storage::context::check_current("run_block_position")?;
            let (b, slot) = self.run.locate(ordinal)?;
            self.block_base = ordinal - u64::from(slot);
            self.maybe_readahead(b);
            let block = self.load_block(b)?;
            self.cur_block = Some((b, block));
        }
    }
}

impl Iterator for RunRangeIter<'_> {
    type Item = Result<SearchHit>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if self.ordinal >= self.end || self.ordinal >= self.run.entry_count() {
                self.done = true;
                return None;
            }
            let entry = match self.fetch(self.ordinal) {
                Ok(e) => e,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            self.ordinal += 1;

            let logical = entry.logical_key();
            if logical == self.last_group.as_slice() {
                if self.group_done {
                    continue; // newest visible version already emitted
                }
            } else {
                self.last_group.clear();
                self.last_group.extend_from_slice(logical);
                self.group_done = false;
            }

            let begin_ts = match entry.begin_ts() {
                Ok(ts) => ts,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            if begin_ts <= self.query_ts {
                self.group_done = true;
                return Some(Ok(SearchHit {
                    key: entry.key,
                    value: entry.value,
                    begin_ts,
                }));
            }
            // Version newer than the snapshot: try the next (older) version
            // of the same logical key.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RunBuilder, RunParams};
    use crate::entry::IndexEntry;
    use crate::key::SortBound;
    use crate::rid::{Rid, ZoneId};
    use std::sync::Arc;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_storage::{Durability, TieredStorage};

    fn layout() -> KeyLayout {
        let def = IndexDef::builder("iot")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap();
        KeyLayout::new(Arc::new(def))
    }

    /// Build a run from (device, msg, beginTS) rows.
    fn build(storage: &Arc<TieredStorage>, rows: &[(i64, i64, u64)], name: &str) -> Run {
        let l = layout();
        let mut entries: Vec<IndexEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, &(d, m, ts))| {
                IndexEntry::new(
                    &l,
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    ts,
                    Rid::new(ZoneId::GROOMED, i as u64, 0),
                    &[],
                )
                .unwrap()
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut b = RunBuilder::new(
            l,
            RunParams {
                run_id: 1,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: 0,
                groomed_hi: 0,
                psn: 0,
                offset_bits: 3, // as in Figure 2
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        for e in &entries {
            b.push(e).unwrap();
        }
        b.finish(storage, name, Durability::Persisted, true)
            .unwrap()
    }

    fn scan_pairs(run: &Run, device: i64, lo: i64, hi: i64, ts: u64) -> Vec<(i64, i64, u64)> {
        let l = layout();
        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(device)],
                &SortBound::Included(vec![Datum::Int64(lo)]),
                &SortBound::Included(vec![Datum::Int64(hi)]),
            )
            .unwrap();
        let bucket = l
            .hash_equality(&[Datum::Int64(device)])
            .map(|h| umzi_encoding::hash_prefix(h, run.header().offset_bits))
            .ok();
        let searcher = RunSearcher::new(run);
        searcher
            .scan(&lower, upper.as_deref(), bucket, ts)
            .unwrap()
            .map(|r| {
                let hit = r.unwrap();
                let cols = l.decode_key_columns(&hit.key).unwrap();
                (
                    cols[0].as_i64().unwrap(),
                    cols[1].as_i64().unwrap(),
                    hit.begin_ts,
                )
            })
            .collect()
    }

    /// The paper's §7.1.1 worked example (Figure 2): device = 4,
    /// 1 ≤ msg ≤ 3, queryTS = 100 returns exactly the (4, 1, 97) version.
    #[test]
    fn figure_2_example() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [
            (1, 1, 100),
            (8, 2, 101),
            (4, 1, 97),
            (4, 1, 94),
            (4, 2, 102),
            (5, 1, 97),
            (3, 0, 103),
            (3, 1, 104),
        ];
        let run = build(&storage, &rows, "runs/fig2");
        assert_eq!(scan_pairs(&run, 4, 1, 3, 100), vec![(4, 1, 97)]);
        // With queryTS = 102 the (4,2) version becomes visible.
        assert_eq!(
            scan_pairs(&run, 4, 1, 3, 102),
            vec![(4, 1, 97), (4, 2, 102)]
        );
        // queryTS below every version: nothing.
        assert_eq!(scan_pairs(&run, 4, 1, 3, 90), vec![]);
    }

    #[test]
    fn newest_visible_version_wins() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [(7, 1, 10), (7, 1, 20), (7, 1, 30)];
        let run = build(&storage, &rows, "runs/v");
        assert_eq!(scan_pairs(&run, 7, 0, 9, 100), vec![(7, 1, 30)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 25), vec![(7, 1, 20)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 10), vec![(7, 1, 10)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 9), vec![]);
    }

    #[test]
    fn point_lookup() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [(4, 1, 97), (4, 1, 94), (4, 2, 102), (5, 1, 97)];
        let run = build(&storage, &rows, "runs/pl");
        let l = layout();
        let searcher = RunSearcher::new(&run);

        let prefix = {
            let mut p = l.equality_prefix(&[Datum::Int64(4)]).unwrap();
            umzi_encoding::encode_datum(&Datum::Int64(1), &mut p);
            p
        };
        let bucket = l
            .hash_equality(&[Datum::Int64(4)])
            .map(|h| umzi_encoding::hash_prefix(h, run.header().offset_bits))
            .ok();
        let hit = searcher.lookup(&prefix, bucket, 100).unwrap().unwrap();
        assert_eq!(hit.begin_ts, 97);

        // Missing key.
        let missing = {
            let mut p = l.equality_prefix(&[Datum::Int64(4)]).unwrap();
            umzi_encoding::encode_datum(&Datum::Int64(99), &mut p);
            p
        };
        assert!(searcher.lookup(&missing, bucket, 100).unwrap().is_none());
    }

    /// Exhaustive comparison against a naive oracle across range and ts.
    #[test]
    fn scan_matches_oracle() {
        let storage = Arc::new(TieredStorage::in_memory());
        // Deterministic pseudo-random rows: 40 devices × versions.
        let mut rows = Vec::new();
        let mut x = 12345u64;
        for i in 0..800i64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let device = (x >> 33) as i64 % 8;
            let msg = (x >> 17) as i64 % 10;
            let ts = 1 + (i as u64 % 50);
            rows.push((device, msg, ts));
        }
        let run = build(&storage, &rows, "runs/oracle");

        for device in 0..8i64 {
            for ts in [0u64, 10, 25, 50, 100] {
                let got = scan_pairs(&run, device, 2, 7, ts);
                // Oracle: group by (device, msg), max beginTS ≤ ts.
                let mut best: std::collections::BTreeMap<i64, u64> = Default::default();
                for &(d, m, t) in &rows {
                    if d == device && (2..=7).contains(&m) && t <= ts {
                        let e = best.entry(m).or_insert(0);
                        *e = (*e).max(t);
                    }
                }
                let want: Vec<(i64, i64, u64)> =
                    best.into_iter().map(|(m, t)| (device, m, t)).collect();
                assert_eq!(got, want, "device={device} ts={ts}");
            }
        }
    }

    /// Splitting a positioned iterator at logical-key boundaries and
    /// concatenating the pieces yields exactly the unsplit scan, including
    /// the per-group newest-visible filtering.
    #[test]
    fn sub_range_pieces_equal_whole_scan() {
        let storage = Arc::new(TieredStorage::in_memory());
        // Many versions per key so groups span several entries.
        let mut rows = Vec::new();
        for msg in 0..200i64 {
            for v in 0..4u64 {
                rows.push((2, msg, 10 + v * 10));
            }
        }
        let run = build(&storage, &rows, "runs/sub");
        let l = layout();
        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(2)],
                &SortBound::Included(vec![Datum::Int64(0)]),
                &SortBound::Included(vec![Datum::Int64(199)]),
            )
            .unwrap();
        for ts in [5u64, 15, 25, 100] {
            let searcher = RunSearcher::new(&run);
            let whole = searcher.scan(&lower, upper.as_deref(), None, ts).unwrap();
            let (start, end) = whole.ordinal_bounds();
            let full: Vec<_> = whole.map(|r| r.unwrap().key).collect();

            // Cut at the logical keys of msg 50, 120 and 180.
            let mut cuts = vec![start];
            for msg in [50i64, 120, 180] {
                let mut b = l.equality_prefix(&[Datum::Int64(2)]).unwrap();
                umzi_encoding::encode_datum(&Datum::Int64(msg), &mut b);
                cuts.push(run.locate_first_geq(&b).unwrap().clamp(start, end));
            }
            cuts.push(end);
            let template = searcher.scan(&lower, upper.as_deref(), None, ts).unwrap();
            let mut stitched = Vec::new();
            for w in cuts.windows(2) {
                let piece = template.sub_range(w[0], w[1]);
                assert_eq!(piece.ordinal_bounds(), (w[0], w[1].max(w[0])));
                stitched.extend(piece.map(|r| r.unwrap().key));
            }
            assert_eq!(stitched, full, "ts={ts}");
        }
    }

    #[test]
    fn sub_range_clamps_to_parent_bounds() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows: Vec<(i64, i64, u64)> = (0..50).map(|m| (1, m, 10)).collect();
        let run = build(&storage, &rows, "runs/clamp");
        let l = layout();
        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(1)],
                &SortBound::Included(vec![Datum::Int64(10)]),
                &SortBound::Included(vec![Datum::Int64(39)]),
            )
            .unwrap();
        let it = RunSearcher::new(&run)
            .scan(&lower, upper.as_deref(), None, u64::MAX)
            .unwrap();
        let (start, end) = it.ordinal_bounds();
        assert_eq!(it.remaining_entries(), end - start);
        // Out-of-parent requests clamp to the parent range.
        assert_eq!(it.sub_range(0, u64::MAX).ordinal_bounds(), (start, end));
        // Inverted/empty requests yield an empty piece, not a panic.
        let empty = it.sub_range(end, start);
        assert_eq!(empty.remaining_entries(), 0);
        assert_eq!(empty.count(), 0);
    }

    /// A cold scan with readahead configured returns exactly what the warm
    /// scan returned, and the storage counters attribute the staged blocks.
    #[test]
    fn readahead_scan_is_equivalent_and_attributed() {
        let cfg = umzi_storage::TieredConfig {
            chunk_size: 256,
            prefetch: umzi_storage::PrefetchConfig {
                depth: 3,
                max_inflight_bytes: 1 << 20,
            },
            ..umzi_storage::TieredConfig::default()
        };
        let storage = Arc::new(TieredStorage::new(
            umzi_storage::SharedStorage::in_memory(),
            cfg,
        ));
        let rows: Vec<(i64, i64, u64)> = (0..400).map(|m| (3, m, 10)).collect();
        let run = build(&storage, &rows, "runs/ra");
        assert!(run.data_block_count() > 6, "need several blocks");

        let warm = scan_pairs(&run, 3, 0, 399, 100);
        assert_eq!(warm.len(), 400);

        // Purge drops the local copies; the cold scan streams batched
        // prefetches back in instead of stalling per block.
        storage.purge_object(run.handle()).unwrap();
        let cold = scan_pairs(&run, 3, 0, 399, 100);
        assert_eq!(cold, warm, "readahead must not change scan results");
        let s = storage.stats();
        assert!(s.blocks_prefetched > 0, "scan staged blocks: {s:?}");
        assert!(s.prefetch_hits > 0, "staged blocks served reads: {s:?}");
    }

    #[test]
    fn empty_run_scans_empty() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build(&storage, &[], "runs/empty");
        assert_eq!(scan_pairs(&run, 1, 0, 100, u64::MAX), vec![]);
        let searcher = RunSearcher::new(&run);
        assert_eq!(searcher.find_first_geq(b"anything", None).unwrap(), 0);
    }
}
