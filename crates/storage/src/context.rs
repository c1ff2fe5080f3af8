//! Query deadlines and cooperative cancellation.
//!
//! A [`QueryContext`] (deadline + shared [`CancelToken`]) travels down
//! through the engine, query, reconcile, run, and storage layers on one
//! channel: a thread-local stack installed via [`enter`]. A caller that
//! wants a deadline writes `let _g = context::enter(ctx);` and then calls
//! the operation; every layer below (admission, `with_retry_as` backoff
//! loops, block-iterator refills, prefetch staging) consults the active
//! context without a parameter threaded through its signature. Worker
//! threads spawned for a partitioned scan re-install the parent's context
//! with [`enter`] before doing any IO; maintenance daemons never install
//! one, so background IO keeps its full retry budget.
//!
//! Checks are *cooperative checkpoints*: hot loops call
//! [`QueryContext::check`] (or [`check_current`]) at block boundaries and
//! retry-sleep decisions, which observes the cancellation token exactly
//! once per call. [`CancelToken::trip_after`] arms a deterministic
//! countdown over those observations so tests can fire cancellation at the
//! N-th checkpoint instead of relying on wall-clock races.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::StorageError;

/// Shared-storage operation classes, used to attribute retries and to give
/// the circuit breaker independent per-class state (a sick manifest prefix
/// must not trip the breaker for block fetches, and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Run/groomed-block data reads and run object creation.
    BlockFetch,
    /// Manifest log records (put/list/get/delete) and recovery listings.
    Manifest,
    /// Live-zone delta objects (shard WAL-ish state).
    Delta,
    /// Garbage-collection deletes of retired runs/blocks/deltas.
    Gc,
}

impl OpClass {
    /// Number of classes (array-index space).
    pub const COUNT: usize = 4;

    /// All classes in index order.
    pub const ALL: [OpClass; Self::COUNT] = [
        OpClass::BlockFetch,
        OpClass::Manifest,
        OpClass::Delta,
        OpClass::Gc,
    ];

    /// Stable dense index for per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::BlockFetch => 0,
            OpClass::Manifest => 1,
            OpClass::Delta => 2,
            OpClass::Gc => 3,
        }
    }

    /// Metric-label spelling.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::BlockFetch => "block_fetch",
            OpClass::Manifest => "manifest",
            OpClass::Delta => "delta",
            OpClass::Gc => "gc",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// When positive, each observed checkpoint decrements this; the
    /// observation that drives it to zero trips the token. Zero or negative
    /// means the countdown is disarmed.
    countdown: AtomicI64,
    /// Total checkpoints observed (test introspection: "how many
    /// cancellation points does this query pass through?").
    observed: AtomicU64,
}

/// A shareable cancellation flag. Cloning is cheap (one `Arc`); all clones
/// observe the same flag, so the engine can hand one token to a query and
/// keep a clone to cancel it from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself at the `n`-th observed checkpoint
    /// (1-based). `trip_after(1)` cancels at the very first cooperative
    /// check; `trip_after(0)` behaves like an already-cancelled token.
    /// Deterministic: no timing involved.
    pub fn trip_after(n: u64) -> Self {
        let t = Self::new();
        if n == 0 {
            t.cancel();
        } else {
            t.inner
                .countdown
                .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
        }
        t
    }

    /// Trip the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has tripped. Pure observer — does not count as a
    /// checkpoint and never advances a [`trip_after`](Self::trip_after)
    /// countdown.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Checkpoints observed so far across all clones.
    pub fn checkpoints_observed(&self) -> u64 {
        self.inner.observed.load(Ordering::SeqCst)
    }

    /// Record one cooperative checkpoint and report whether the token is
    /// (now) cancelled. Drives the `trip_after` countdown.
    fn observe_checkpoint(&self) -> bool {
        self.inner.observed.fetch_add(1, Ordering::SeqCst);
        if self.inner.countdown.load(Ordering::SeqCst) > 0
            && self.inner.countdown.fetch_sub(1, Ordering::SeqCst) == 1
        {
            self.cancel();
        }
        self.is_cancelled()
    }
}

/// Per-query deadline + cancellation bundle.
///
/// Cheap to clone (`Option<Instant>` + one `Arc`). The default context is
/// unbounded: no deadline, no cancellation — exactly the behavior of a
/// call made with no context installed.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl QueryContext {
    /// No deadline, no cancellation.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A context whose deadline is `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::deadline_at(Instant::now() + budget)
    }

    /// A context with an absolute deadline.
    pub fn deadline_at(deadline: Instant) -> Self {
        QueryContext {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether this context can never expire or be cancelled.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Remaining budget until the deadline (`None` = no deadline;
    /// `Some(ZERO)` = already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the cancellation token has tripped (pure observer).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Cooperative checkpoint: observe the cancellation token once, then
    /// the deadline. Returns the typed error naming the operation at which
    /// the query gave up. Cancellation wins over expiry when both hold.
    pub fn check(&self, op: &'static str) -> Result<(), StorageError> {
        if let Some(t) = &self.cancel {
            if t.observe_checkpoint() {
                return Err(StorageError::Cancelled { op });
            }
        }
        if self.is_expired() {
            return Err(StorageError::DeadlineExceeded { op });
        }
        Ok(())
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<QueryContext>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that pops the ambient context installed by [`enter`].
#[derive(Debug)]
pub struct ContextGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `ctx` as this thread's ambient query context until the returned
/// guard drops. Nests: an inner `enter` shadows the outer context.
pub fn enter(ctx: QueryContext) -> ContextGuard {
    AMBIENT.with(|s| s.borrow_mut().push(ctx));
    ContextGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// The ambient context installed on this thread, or an unbounded one.
/// Use this to capture the caller's context before handing work to a
/// worker thread (which then [`enter`]s the clone).
pub fn current() -> QueryContext {
    current_if_set().unwrap_or_default()
}

/// The ambient context, if one is installed on this thread.
pub fn current_if_set() -> Option<QueryContext> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// Cooperative checkpoint against the ambient context. Free (two
/// thread-local reads) when no context is installed — the hot-path cost on
/// every call made without a deadline. `op` names the operation for the
/// typed error.
pub fn check_current(op: &'static str) -> Result<(), StorageError> {
    AMBIENT.with(|s| match s.borrow().last() {
        Some(ctx) => ctx.check(op),
        None => Ok(()),
    })
}

/// Remaining deadline budget of the ambient context (`None` = unbounded).
pub fn current_remaining() -> Option<Duration> {
    AMBIENT.with(|s| s.borrow().last().and_then(QueryContext::remaining))
}

/// Whether the ambient context is already cancelled or expired. Pure
/// observer — records no checkpoint. The gate for advisory work (prefetch
/// refills) that should be skipped, not failed, when the query is done.
pub fn current_aborted() -> bool {
    AMBIENT.with(|s| {
        s.borrow()
            .last()
            .is_some_and(|c| c.is_cancelled() || c.is_expired())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_never_trips() {
        let ctx = QueryContext::unbounded();
        assert!(ctx.is_unbounded());
        for _ in 0..1000 {
            ctx.check("op").unwrap();
        }
        assert!(!ctx.is_expired());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn deadline_expiry_is_typed() {
        let ctx = QueryContext::deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(ctx.is_expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        match ctx.check("fetch") {
            Err(StorageError::DeadlineExceeded { op }) => assert_eq!(op, "fetch"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let ctx = QueryContext::unbounded().with_cancel(t.clone());
        ctx.check("op").unwrap();
        t.cancel();
        match ctx.check("op") {
            Err(StorageError::Cancelled { op }) => assert_eq!(op, "op"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn trip_after_counts_checkpoints_deterministically() {
        let t = CancelToken::trip_after(3);
        let ctx = QueryContext::unbounded().with_cancel(t.clone());
        ctx.check("a").unwrap();
        ctx.check("b").unwrap();
        // Pure observers do not advance the countdown.
        assert!(!t.is_cancelled());
        assert!(ctx.check("c").is_err());
        assert_eq!(t.checkpoints_observed(), 3);

        let zero = CancelToken::trip_after(0);
        assert!(zero.is_cancelled());
    }

    #[test]
    fn ambient_stack_nests_and_restores() {
        assert!(current_if_set().is_none());
        check_current("noctx").unwrap();
        let outer = QueryContext::with_deadline(Duration::from_secs(60));
        {
            let _g = enter(outer.clone());
            assert!(current_if_set().is_some());
            assert!(current_remaining().is_some());
            {
                let cancelled = QueryContext::unbounded().with_cancel(CancelToken::trip_after(0));
                let _g2 = enter(cancelled);
                assert!(check_current("inner").is_err());
            }
            // Outer context restored.
            check_current("outer").unwrap();
        }
        assert!(current_if_set().is_none());
    }

    #[test]
    fn op_class_index_roundtrip() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
    }
}
