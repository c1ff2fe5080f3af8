//! Reconciling results from multiple runs (§7.1.2).
//!
//! Each run's search already yields at most one (the newest visible) version
//! per logical key *within that run*; reconciliation keeps, per logical key,
//! only the hit from the newest run. Two strategies, as in the paper:
//!
//! * **Set approach** — search runs sequentially from newest to oldest and
//!   remember which keys were already returned. Cheap for small ranges; the
//!   set of intermediate keys must fit in memory.
//! * **The priority-queue approach** — merge all runs' sorted streams through a
//!   heap (the merge step of merge sort); the first entry of each logical
//!   key group is the newest version, so no intermediate set is needed.
//!
//! Correctness of the set approach relies on the candidate-run ordering
//! established by the query layer: runs are processed in descending
//! `groomed_hi` order, and the zone invariant guarantees a newer run can
//! never hold an *older* newest-visible version than an overlapping older
//! run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use umzi_run::{KeyLayout, Result, Run, SearchHit};

/// How multi-run results are reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileStrategy {
    /// Remember returned keys in a hash set (good for small ranges).
    Set,
    /// K-way merge through a priority queue (bounded memory).
    #[default]
    PriorityQueue,
}

/// Set approach: `streams` must be ordered newest run first. Returns hits
/// sorted by full key (for deterministic output).
pub fn reconcile_set<I>(streams: Vec<I>) -> Result<Vec<SearchHit>>
where
    I: Iterator<Item = Result<SearchHit>>,
{
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out = Vec::new();
    for stream in streams {
        for hit in stream {
            let hit = hit?;
            let logical = hit.logical_key().to_vec();
            if seen.insert(logical) {
                out.push(hit);
            }
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

struct HeapEntry {
    hit: SearchHit,
    /// Stream rank: lower = newer run; breaks ties between identical
    /// versions that appear in two zones during an evolve window.
    rank: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.hit.key == other.hit.key && self.rank == other.rank
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for ascending key order. Full keys
        // order versions of one logical key newest-first (¬beginTS).
        other
            .hit
            .key
            .cmp(&self.hit.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// The priority-queue approach: merges the streams, emitting the first (newest
/// visible) entry of every logical-key group. `streams` ordered newest run
/// first. Output is sorted by full key.
pub fn reconcile_pq<I>(streams: Vec<I>) -> Result<Vec<SearchHit>>
where
    I: Iterator<Item = Result<SearchHit>>,
{
    let mut streams: Vec<I> = streams;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(streams.len());
    for (rank, s) in streams.iter_mut().enumerate() {
        if let Some(hit) = s.next().transpose()? {
            heap.push(HeapEntry { hit, rank });
        }
    }

    let mut out: Vec<SearchHit> = Vec::new();
    let mut last_logical: Option<Vec<u8>> = None;
    // The streams check their query context at block boundaries; this
    // periodic check also bounds cancellation latency for merges running
    // entirely out of the decoded cache.
    let mut since_check = 0u32;
    while let Some(HeapEntry { hit, rank }) = heap.pop() {
        since_check += 1;
        if since_check >= 256 {
            since_check = 0;
            umzi_storage::context::check_current("reconcile")?;
        }
        if let Some(next) = streams[rank].next().transpose()? {
            heap.push(HeapEntry { hit: next, rank });
        }
        let logical = hit.logical_key();
        if last_logical.as_deref() != Some(logical) {
            last_logical = Some(logical.to_vec());
            out.push(hit);
        }
        // Else: an older version (or a cross-zone duplicate of the same
        // version) of an already-emitted key — discard, exactly the paper's
        // "select the most recent version for each key and discard the rest".
    }
    Ok(out)
}

/// Partitioned parallel reconcile: each element of `partitions` holds one
/// key-disjoint sub-range's per-run streams (same newest-first run order in
/// every partition, ascending key ranges across partitions). Every
/// partition is merged independently with [`reconcile_pq`] — partitions
/// after the first on scoped threads — and the per-partition outputs are
/// concatenated in partition order.
///
/// Because partitions cover disjoint, ascending key ranges and each is cut
/// at **logical-key** boundaries (no group straddles a cut; logical keys
/// are prefix-free, see `umzi_encoding::keycodec`), the concatenation is
/// byte-for-byte the sequential [`reconcile_pq`] output. The sequential
/// merge remains the oracle for tests and the small-scan fast path.
pub fn reconcile_partitioned<I>(partitions: Vec<Vec<I>>) -> Result<Vec<SearchHit>>
where
    I: Iterator<Item = Result<SearchHit>> + Send,
{
    let mut partitions = partitions;
    match partitions.len() {
        0 => return Ok(Vec::new()),
        1 => return reconcile_pq(partitions.pop().expect("one partition")),
        _ => {}
    }
    let first = partitions.remove(0);
    // Worker threads re-install the caller's query context so deadline and
    // cancellation reach every partition's merge, not just partition 0.
    let ctx = umzi_storage::context::current();
    let (head, rest) = std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .into_iter()
            .map(|streams| {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _g = umzi_storage::context::enter(ctx);
                    reconcile_pq(streams)
                })
            })
            .collect();
        // The calling thread merges partition 0 while the others run.
        let head = reconcile_pq(first);
        let rest: Vec<Result<Vec<SearchHit>>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (head, rest)
    });
    let mut out = head?;
    for part in rest {
        out.extend(part?);
    }
    Ok(out)
}

/// Pick up to `target − 1` interior partition boundaries from a sorted
/// fence-key list (the first full key of each data block of one run),
/// evenly spaced **by block count** so partitions balance by data volume
/// rather than key space. Boundaries are returned as *logical* keys,
/// strictly inside `(lower, upper)`, strictly increasing — each is a valid
/// scan cut because no logical-key group straddles it (logical keys are
/// prefix-free).
///
/// `target ≤ 1`, fewer than two fences, or bounds that exclude every fence
/// all yield an empty plan (the caller falls back to the sequential merge).
pub fn plan_partition_boundaries(
    fences: &[Vec<u8>],
    lower: &[u8],
    upper: Option<&[u8]>,
    target: usize,
) -> Vec<Vec<u8>> {
    if target <= 1 || fences.len() < 2 {
        return Vec::new();
    }
    // Candidate cuts: logical keys of in-range fences. A boundary equal to
    // the scan lower bound would create an empty leading partition;
    // `> lower` also keeps partition 0 non-degenerate when a fence key
    // *is* the bound.
    let cands: Vec<&[u8]> = fences
        .iter()
        .map(|f| KeyLayout::logical_key(f))
        .filter(|l| *l > lower && upper.is_none_or(|u| *l < u))
        .collect();
    if cands.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(target - 1);
    for i in 1..target {
        // Evenly spaced by candidate (≈ block) index.
        let cand = cands[(i * cands.len() / target).min(cands.len() - 1)];
        if out.last().is_none_or(|prev| prev.as_slice() < cand) {
            out.push(cand.to_vec());
        }
    }
    out
}

/// Boundary planner over candidate runs: merges the fence keys of **every**
/// candidate run into one sorted list — each fence stands for roughly one
/// block of data volume in its run, so the merged list is a histogram of
/// where the merge's total input volume lies — and plans `target`-way
/// boundaries within the scan range from it.
///
/// Planning from a single run (the earlier largest-run-only heuristic)
/// skews badly when same-sized runs cover disjoint key ranges: the chosen
/// run's fences say nothing about the other runs' share of the key space,
/// so every boundary lands inside one run's range and the other runs' rows
/// all pile into a single partition.
pub fn plan_scan_partitions(
    runs: &[Arc<Run>],
    lower: &[u8],
    upper: Option<&[u8]>,
    target: usize,
) -> Result<Vec<Vec<u8>>> {
    if target <= 1 || runs.is_empty() {
        return Ok(Vec::new());
    }
    let mut merged: Vec<Vec<u8>> = Vec::new();
    for run in runs {
        merged.extend_from_slice(run.fence_keys()?);
    }
    merged.sort();
    Ok(plan_partition_boundaries(&merged, lower, upper, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Fabricate a hit with `key = logical ∥ ¬ts` like the run format.
    fn hit(logical: &[u8], ts: u64) -> SearchHit {
        let mut key = logical.to_vec();
        key.extend_from_slice(&(!ts).to_be_bytes());
        SearchHit {
            key: Bytes::from(key),
            value: Bytes::from_static(b"v"),
            begin_ts: ts,
        }
    }

    fn ok_stream(hits: Vec<SearchHit>) -> impl Iterator<Item = Result<SearchHit>> {
        hits.into_iter().map(Ok)
    }

    fn pairs(hits: &[SearchHit]) -> Vec<(Vec<u8>, u64)> {
        hits.iter()
            .map(|h| (h.logical_key().to_vec(), h.begin_ts))
            .collect()
    }

    #[test]
    fn set_prefers_newer_runs() {
        // Run 0 (newest) has k1@20; run 1 has k1@10 and k2@5.
        let s0 = ok_stream(vec![hit(b"k1", 20)]);
        let s1 = ok_stream(vec![hit(b"k1", 10), hit(b"k2", 5)]);
        let out = reconcile_set(vec![s0, s1]).unwrap();
        assert_eq!(pairs(&out), vec![(b"k1".to_vec(), 20), (b"k2".to_vec(), 5)]);
    }

    #[test]
    fn pq_matches_set() {
        let runs = [
            vec![hit(b"a", 30), hit(b"c", 10)],
            vec![hit(b"a", 20), hit(b"b", 15)],
            vec![hit(b"b", 5), hit(b"c", 8), hit(b"d", 1)],
        ];
        let set_out = reconcile_set(runs.iter().cloned().map(ok_stream).collect()).unwrap();
        let pq_out = reconcile_pq(runs.iter().cloned().map(ok_stream).collect()).unwrap();
        assert_eq!(pairs(&set_out), pairs(&pq_out));
        assert_eq!(
            pairs(&pq_out),
            vec![
                (b"a".to_vec(), 30),
                (b"b".to_vec(), 15),
                (b"c".to_vec(), 10),
                (b"d".to_vec(), 1),
            ]
        );
    }

    #[test]
    fn pq_dedupes_cross_zone_duplicates() {
        // The same version (key, ts) present in two runs — the evolve window
        // of §5.4. Exactly one copy must be emitted.
        let s0 = ok_stream(vec![hit(b"k", 9)]);
        let s1 = ok_stream(vec![hit(b"k", 9)]);
        let out = reconcile_pq(vec![s0, s1]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].begin_ts, 9);

        let s0 = ok_stream(vec![hit(b"k", 9)]);
        let s1 = ok_stream(vec![hit(b"k", 9)]);
        assert_eq!(reconcile_set(vec![s0, s1]).unwrap().len(), 1);
    }

    #[test]
    fn empty_streams() {
        let out = reconcile_pq(vec![ok_stream(vec![]), ok_stream(vec![])]).unwrap();
        assert!(out.is_empty());
        let out: Vec<SearchHit> = reconcile_set(Vec::<std::vec::IntoIter<_>>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let make = || {
            vec![
                Ok(hit(b"a", 1)),
                Err(umzi_run::RunError::Corrupt {
                    context: "boom".into(),
                }),
            ]
        };
        assert!(reconcile_pq(vec![make().into_iter()]).is_err());
        assert!(reconcile_set(vec![make().into_iter()]).is_err());
    }

    #[test]
    fn outputs_sorted_by_key() {
        let s0 = ok_stream(vec![hit(b"m", 1), hit(b"z", 1)]);
        let s1 = ok_stream(vec![hit(b"a", 1)]);
        let out = reconcile_set(vec![s0, s1]).unwrap();
        let keys: Vec<_> = out.iter().map(|h| h.logical_key().to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"m".to_vec(), b"z".to_vec()]);
    }

    /// Split each run's (sorted) hits at logical-key boundaries — the same
    /// cut rule the production path applies via `locate_first_geq`.
    fn split_at(
        runs: &[Vec<SearchHit>],
        boundaries: &[&[u8]],
    ) -> Vec<Vec<std::vec::IntoIter<Result<SearchHit>>>> {
        let mut partitions = Vec::with_capacity(boundaries.len() + 1);
        for p in 0..=boundaries.len() {
            let mut streams = Vec::with_capacity(runs.len());
            for run in runs {
                let lo = if p == 0 {
                    0
                } else {
                    run.partition_point(|h| h.logical_key() < boundaries[p - 1])
                };
                let hi = if p == boundaries.len() {
                    run.len()
                } else {
                    run.partition_point(|h| h.logical_key() < boundaries[p])
                };
                let hits: Vec<Result<SearchHit>> = run[lo..hi].iter().cloned().map(Ok).collect();
                streams.push(hits.into_iter());
            }
            partitions.push(streams);
        }
        partitions
    }

    fn bytes_of(hits: &[SearchHit]) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
        hits.iter()
            .map(|h| (h.key.to_vec(), h.value.to_vec(), h.begin_ts))
            .collect()
    }

    #[test]
    fn partitioned_equals_pq_including_boundary_duplicates() {
        // Cross-run conflicts sitting exactly at the partition cuts: "c" is
        // duplicated across zones, "b" has a newer-run-wins conflict.
        let runs = vec![
            vec![hit(b"a", 30), hit(b"b", 25), hit(b"c", 10)],
            vec![hit(b"b", 15), hit(b"c", 10), hit(b"d", 2)],
            vec![hit(b"b", 5), hit(b"c", 8), hit(b"e", 1)],
        ];
        for boundaries in [
            vec![],
            vec![b"b".as_slice()],
            vec![b"b".as_slice(), b"c".as_slice()],
            vec![
                b"a".as_slice(),
                b"b".as_slice(),
                b"c".as_slice(),
                b"e".as_slice(),
            ],
            vec![b"0".as_slice(), b"z".as_slice()], // outside the key population
        ] {
            let seq = reconcile_pq(runs.iter().map(|r| ok_stream(r.clone())).collect()).unwrap();
            let par = reconcile_partitioned(split_at(&runs, &boundaries)).unwrap();
            assert_eq!(bytes_of(&par), bytes_of(&seq), "boundaries {boundaries:?}");
        }
    }

    #[test]
    fn partitioned_empty_and_error_cases() {
        let none: Vec<Vec<std::vec::IntoIter<Result<SearchHit>>>> = Vec::new();
        assert!(reconcile_partitioned(none).unwrap().is_empty());

        // An error inside any partition's stream propagates.
        let bad: Vec<Result<SearchHit>> = vec![
            Ok(hit(b"x", 1)),
            Err(umzi_run::RunError::Corrupt {
                context: "boom".into(),
            }),
        ];
        let good: Vec<Result<SearchHit>> = vec![Ok(hit(b"a", 1))];
        assert!(
            reconcile_partitioned(vec![vec![good.into_iter()], vec![bad.into_iter()]]).is_err()
        );
    }

    /// Fabricate a fence key (full key, like the run format stores).
    fn fence(logical: &[u8], ts: u64) -> Vec<u8> {
        let mut k = logical.to_vec();
        k.extend_from_slice(&(!ts).to_be_bytes());
        k
    }

    #[test]
    fn planner_degenerates_to_sequential_for_p1_and_tiny_runs() {
        let fences = vec![fence(b"b", 1), fence(b"m", 1), fence(b"x", 1)];
        // P = 1 never plans boundaries: the caller keeps the sequential path.
        assert!(plan_partition_boundaries(&fences, b"a", None, 1).is_empty());
        // A single-block run has nothing to cut at.
        assert!(plan_partition_boundaries(&fences[..1], b"a", None, 4).is_empty());
        assert!(plan_partition_boundaries(&[], b"a", None, 4).is_empty());
    }

    #[test]
    fn planner_skips_boundaries_equal_to_scan_bounds() {
        let fences = vec![fence(b"b", 1), fence(b"m", 1), fence(b"x", 1)];
        // Lower bound exactly at a fence's logical key: that fence would
        // create an empty partition 0 and is excluded.
        let b = plan_partition_boundaries(&fences, b"b", None, 3);
        assert!(!b.iter().any(|x| x == b"b"), "{b:?}");
        // Upper bound exactly at a fence's logical key: excluded too.
        let b = plan_partition_boundaries(&fences, b"a", Some(b"x"), 8);
        assert!(!b.iter().any(|x| x == b"x"), "{b:?}");
        // Bounds that exclude every fence: empty plan.
        assert!(plan_partition_boundaries(&fences, b"y", None, 4).is_empty());
        assert!(plan_partition_boundaries(&fences, b"a", Some(b"b"), 4).is_empty());
    }

    #[test]
    fn planner_boundaries_strictly_increase_even_when_p_exceeds_blocks() {
        let fences: Vec<Vec<u8>> = (b'a'..=b'f').map(|c| fence(&[c], 1)).collect();
        let b = plan_partition_boundaries(&fences, b"a", None, 32);
        assert!(!b.is_empty());
        for w in b.windows(2) {
            assert!(w[0] < w[1], "boundaries must strictly increase: {b:?}");
        }
        // Logical keys only — the ¬ts suffix must have been stripped.
        assert!(b.iter().all(|x| x.len() == 1), "{b:?}");
    }

    #[test]
    fn planner_balances_by_block_count_under_skew() {
        // Fences heavily skewed towards the low key range — e.g. all the
        // data lives in one dense prefix. Boundaries follow the *blocks*
        // (data volume), not the key space: with 8 of 10 blocks below "c",
        // the 2-way cut lands inside the dense region.
        let mut fences: Vec<Vec<u8>> = (0..8u8).map(|i| fence(&[b'a', i], 1)).collect();
        fences.push(fence(b"m", 1));
        fences.push(fence(b"x", 1));
        let b = plan_partition_boundaries(&fences, b"a", None, 2);
        assert_eq!(b.len(), 1);
        assert!(
            b[0] < b"c".to_vec(),
            "cut must land in the dense region: {b:?}"
        );
    }
}
