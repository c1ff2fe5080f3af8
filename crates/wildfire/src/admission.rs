//! Read admission control: bounded concurrent analytical scans with a
//! deadline-aware queue.
//!
//! PR 7 gave the *write* path overload protection (byte-based ingest
//! backpressure); this gives the read path the same machinery. Analytical
//! scans are the read-side resource hogs — each one fans out partition
//! merge threads and streams blocks — so the engine bounds how many run
//! concurrently. Excess scans wait in a queue, but never uselessly: a
//! query whose **estimated wait already exceeds its remaining deadline
//! budget is shed immediately** with a typed
//! [`WildfireError::Overloaded`], so a brownout turns into fast typed
//! failures instead of a convoy of doomed, timed-out scans. Point lookups
//! are never queued here — interactive traffic keeps its latency floor.
//!
//! Admission is **disabled by default** (`max_concurrent_scans == 0`),
//! preserving pre-existing behavior; the SLO harness and overload-aware
//! deployments opt in via [`crate::EngineConfig::admission`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use umzi_storage::context;

use crate::error::WildfireError;

/// Read admission tuning. `max_concurrent_scans == 0` disables admission
/// control entirely (every scan is admitted immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent analytical scans allowed to execute. `0` = unlimited.
    pub max_concurrent_scans: usize,
    /// Scans allowed to wait in the queue; one more is shed regardless of
    /// its deadline budget.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent_scans: 0,
            max_queue_depth: 64,
        }
    }
}

#[derive(Debug, Default)]
struct AdmissionInner {
    running: usize,
    queued: usize,
    /// EWMA of completed scan durations in nanos (0 until the first scan
    /// finishes) — the basis of the queue-wait estimate.
    avg_scan_nanos: f64,
}

/// Point-in-time admission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Scans admitted (immediately or after queueing).
    pub admitted: u64,
    /// Scans shed with [`WildfireError::Overloaded`].
    pub shed: u64,
    /// Scans currently executing.
    pub running: u64,
    /// Scans currently queued.
    pub queued: u64,
    /// Current EWMA scan duration estimate, in nanos.
    pub avg_scan_nanos: u64,
}

/// The engine's analytical-scan admission controller.
#[derive(Debug)]
pub struct ReadAdmission {
    cfg: AdmissionConfig,
    inner: Mutex<AdmissionInner>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl ReadAdmission {
    /// Build a controller from config.
    pub fn new(cfg: AdmissionConfig) -> Self {
        ReadAdmission {
            cfg,
            inner: Mutex::new(AdmissionInner::default()),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Whether admission control participates at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.max_concurrent_scans > 0
    }

    /// Admit an analytical scan, queueing if the concurrency bound is hot.
    /// Returns `Ok(None)` when disabled (no permit to hold). Sheds with
    /// [`WildfireError::Overloaded`] when the queue is full or the
    /// estimated wait exceeds the remaining deadline budget of the ambient
    /// query context; returns the context's own typed error if the deadline
    /// expires (or cancellation fires) while queued.
    pub fn admit(self: &Arc<Self>) -> Result<Option<ScanPermit>, WildfireError> {
        if !self.is_enabled() {
            return Ok(None);
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.running < self.cfg.max_concurrent_scans {
            inner.running += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(ScanPermit::new(Arc::clone(self))));
        }
        // Estimated wait: scans ahead of us (queued + the one slot we need)
        // times the average scan duration, spread over the slot count.
        let est = self.estimated_wait(&inner);
        let doomed = context::current_remaining().is_some_and(|rem| est > rem);
        if doomed || inner.queued >= self.cfg.max_queue_depth {
            let queue_depth = inner.queued;
            drop(inner);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(WildfireError::Overloaded {
                estimated_wait: est,
                queue_depth,
            });
        }
        inner.queued += 1;
        loop {
            if inner.running < self.cfg.max_concurrent_scans {
                inner.queued -= 1;
                inner.running += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(ScanPermit::new(Arc::clone(self))));
            }
            // Bounded waits so deadline expiry / cancellation while queued
            // is observed promptly.
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, Duration::from_millis(2))
                .unwrap();
            inner = guard;
            if let Err(e) = context::check_current("scan_admission") {
                inner.queued -= 1;
                drop(inner);
                return Err(WildfireError::Storage(e));
            }
        }
    }

    fn estimated_wait(&self, inner: &AdmissionInner) -> Duration {
        let slots = self.cfg.max_concurrent_scans.max(1) as f64;
        let ahead = (inner.queued + 1) as f64;
        Duration::from_nanos((inner.avg_scan_nanos * ahead / slots) as u64)
    }

    fn release(&self, elapsed: Duration) {
        let mut inner = self.inner.lock().unwrap();
        inner.running = inner.running.saturating_sub(1);
        let sample = elapsed.as_nanos() as f64;
        inner.avg_scan_nanos = if inner.avg_scan_nanos == 0.0 {
            sample
        } else {
            0.8 * inner.avg_scan_nanos + 0.2 * sample
        };
        drop(inner);
        self.cv.notify_one();
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> AdmissionStats {
        let inner = self.inner.lock().unwrap();
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            running: inner.running as u64,
            queued: inner.queued as u64,
            avg_scan_nanos: inner.avg_scan_nanos as u64,
        }
    }
}

/// RAII permit for one running analytical scan; dropping it releases the
/// slot and feeds the scan's duration into the wait estimator.
#[derive(Debug)]
pub struct ScanPermit {
    controller: Arc<ReadAdmission>,
    started: Instant,
}

impl ScanPermit {
    fn new(controller: Arc<ReadAdmission>) -> Self {
        ScanPermit {
            controller,
            started: Instant::now(),
        }
    }
}

impl Drop for ScanPermit {
    fn drop(&mut self) {
        self.controller.release(self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umzi_storage::QueryContext;

    #[test]
    fn disabled_admission_never_queues() {
        let a = Arc::new(ReadAdmission::new(AdmissionConfig::default()));
        assert!(!a.is_enabled());
        assert!(a.admit().unwrap().is_none());
        assert_eq!(a.stats().admitted, 0);
    }

    #[test]
    fn bounds_concurrency_and_queues_fifo_ish() {
        let a = Arc::new(ReadAdmission::new(AdmissionConfig {
            max_concurrent_scans: 1,
            max_queue_depth: 4,
        }));
        let p1 = a.admit().unwrap().unwrap();
        assert_eq!(a.stats().running, 1);
        // A second scan waits until the permit drops.
        let a2 = Arc::clone(&a);
        let t = std::thread::spawn(move || {
            let p = a2.admit().unwrap().unwrap();
            drop(p);
        });
        while a.stats().queued == 0 {
            std::thread::yield_now();
        }
        drop(p1);
        t.join().unwrap();
        let s = a.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.running, 0);
        assert!(s.avg_scan_nanos > 0, "EWMA learned from completions");
    }

    #[test]
    fn doomed_queries_are_shed_with_estimate() {
        let a = Arc::new(ReadAdmission::new(AdmissionConfig {
            max_concurrent_scans: 1,
            max_queue_depth: 4,
        }));
        // Teach the estimator that scans take ~50ms.
        {
            let p = a.admit().unwrap().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            drop(p);
        }
        let _held = a.admit().unwrap().unwrap();
        // 1ms of budget against a ~50ms estimated wait: shed immediately.
        let err = {
            let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(1)));
            a.admit().unwrap_err()
        };
        match err {
            WildfireError::Overloaded { estimated_wait, .. } => {
                assert!(estimated_wait >= Duration::from_millis(10));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(a.stats().shed, 1);
    }

    #[test]
    fn full_queue_sheds_unconditionally() {
        let a = Arc::new(ReadAdmission::new(AdmissionConfig {
            max_concurrent_scans: 1,
            max_queue_depth: 0,
        }));
        let _p = a.admit().unwrap().unwrap();
        assert!(matches!(a.admit(), Err(WildfireError::Overloaded { .. })));
    }

    #[test]
    fn deadline_expiry_while_queued_is_typed() {
        let a = Arc::new(ReadAdmission::new(AdmissionConfig {
            max_concurrent_scans: 1,
            max_queue_depth: 4,
        }));
        let _p = a.admit().unwrap().unwrap();
        // Fresh estimator (avg 0): the queue accepts us, then the deadline
        // fires while waiting.
        let err = {
            let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(10)));
            a.admit().unwrap_err()
        };
        assert!(
            matches!(
                err,
                WildfireError::Storage(umzi_storage::StorageError::DeadlineExceeded { .. })
            ),
            "got {err}"
        );
        assert_eq!(a.stats().queued, 0, "queue slot released");
    }
}
