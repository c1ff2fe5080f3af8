//! The ambient query context is the engine's one context channel: a
//! deadline or cancellation token installed with `context::enter` around
//! an engine call reaches that call. Every read and write entry point must
//! fail with the typed error under a tripped token or an expired deadline,
//! leave no residue behind, and answer exactly as before with no context.

use std::sync::Arc;
use std::time::{Duration, Instant};

use umzi::prelude::*;
use umzi_encoding::ColumnType;
use umzi_storage::{context, CancelToken, QueryContext};
use umzi_wildfire::WildfireError;

/// Orders table: PK (region, order_id), secondary index on customer.
fn orders_table() -> TableDef {
    TableDef::builder("orders")
        .column("region", ColumnType::Int64)
        .column("order_id", ColumnType::Int64)
        .column("customer", ColumnType::Int64)
        .column("amount", ColumnType::Int64)
        .primary_key(&["region", "order_id"])
        .sharding_key(&["region"])
        .secondary_index("by_customer", &["customer"], &[], &["amount"])
        .build()
        .unwrap()
}

fn row(region: i64, order_id: i64, customer: i64, amount: i64) -> Vec<Datum> {
    vec![
        Datum::Int64(region),
        Datum::Int64(order_id),
        Datum::Int64(customer),
        Datum::Int64(amount),
    ]
}

/// The engine's entry points, each applied to fixed arguments.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get,
    ScanIndex,
    ScanRecords,
    ScanSecondary,
    Upsert,
    UpsertMany,
}

const OPS: [Op; 6] = [
    Op::Get,
    Op::ScanIndex,
    Op::ScanRecords,
    Op::ScanSecondary,
    Op::Upsert,
    Op::UpsertMany,
];

/// Order IDs the write ops commit; none exists before the writes succeed.
const UPSERT_ID: i64 = 1000;
const UPSERT_MANY_IDS: [i64; 2] = [1001, 1002];

/// Run `op` and render its result, so runs can be compared.
fn run(e: &WildfireEngine, op: Op) -> Result<String, WildfireError> {
    let region = vec![Datum::Int64(1)];
    match op {
        Op::Get => e
            .get(&region, &[Datum::Int64(7)], Freshness::Latest)
            .map(|v| format!("{v:?}")),
        Op::ScanIndex => e
            .scan_index(
                region,
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
            .map(|v| format!("{v:?}")),
        Op::ScanRecords => e
            .scan_records(
                region,
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
            )
            .map(|v| format!("{v:?}")),
        Op::ScanSecondary => e
            .scan_secondary(
                "by_customer",
                vec![Datum::Int64(2)],
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
            )
            .map(|v| format!("{v:?}")),
        Op::Upsert => e.upsert(row(1, UPSERT_ID, 2, 0)).map(|()| String::new()),
        Op::UpsertMany => e
            .upsert_many(UPSERT_MANY_IDS.iter().map(|&id| row(1, id, 2, 0)).collect())
            .map(|()| String::new()),
    }
}

/// Whether order `id` of region 1 is visible, live zone included.
fn visible(e: &WildfireEngine, id: i64) -> bool {
    e.get(&[Datum::Int64(1)], &[Datum::Int64(id)], Freshness::Freshest)
        .unwrap()
        .is_some()
}

#[test]
fn entered_context_reaches_every_engine_op() {
    let e = WildfireEngine::create(
        Arc::new(TieredStorage::in_memory()),
        Arc::new(orders_table()),
        EngineConfig {
            n_shards: 2,
            maintenance: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for i in 0..40i64 {
        e.upsert(row(i % 2, i, i % 3, i * 10)).unwrap();
    }
    e.quiesce().unwrap();
    let reads = [Op::Get, Op::ScanIndex, Op::ScanRecords, Op::ScanSecondary];
    let baseline: Vec<String> = reads.iter().map(|&op| run(&e, op).unwrap()).collect();

    for op in OPS {
        let err = {
            let _g =
                context::enter(QueryContext::unbounded().with_cancel(CancelToken::trip_after(0)));
            run(&e, op).expect_err("a tripped token must abort the op")
        };
        assert!(err.is_cancelled(), "{op:?}: got {err}");

        let err = {
            let _g = context::enter(QueryContext::deadline_at(
                Instant::now() - Duration::from_millis(1),
            ));
            run(&e, op).expect_err("an expired deadline must abort the op")
        };
        assert!(err.is_deadline_exceeded(), "{op:?}: got {err}");
    }

    // Every abort was counted once, and none left a residue: the aborted
    // writes committed nothing and the reads answer as before.
    let h = e.health();
    assert_eq!(h.query_cancellations, OPS.len() as u64, "{h:?}");
    assert_eq!(h.query_timeouts, OPS.len() as u64, "{h:?}");
    for id in std::iter::once(UPSERT_ID).chain(UPSERT_MANY_IDS) {
        assert!(!visible(&e, id), "aborted write of order {id} committed");
    }
    for (op, want) in reads.iter().zip(&baseline) {
        assert_eq!(&run(&e, *op).unwrap(), want, "{op:?} changed");
    }

    // With no context installed, the writes go through.
    run(&e, Op::Upsert).unwrap();
    run(&e, Op::UpsertMany).unwrap();
    for id in std::iter::once(UPSERT_ID).chain(UPSERT_MANY_IDS) {
        assert!(visible(&e, id), "order {id} missing after its write");
    }
}
