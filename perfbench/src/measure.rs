//! Latency samples, the correctness verdict, and the result line.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Median of a non-empty list (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.nanos.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.nanos.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
        let rank = (q * self.nanos.len() as f64).ceil() as usize;
        self.nanos[rank.clamp(1, self.nanos.len()) - 1] as f64
    }

    /// The `q` quantile of each run of about `chunk` consecutive samples,
    /// averaged over the runs (one run when there are fewer samples).
    /// Where the engine's state moves between a few discrete levels, as
    /// with one level-0 run more or less to search, the pooled quantile
    /// jumps between them as their shares change; this one moves in
    /// proportion to the shares. Call it before [`Samples::quantile`],
    /// which sorts the samples out of arrival order.
    pub fn chunked(&self, chunk: usize, q: f64) -> f64 {
        assert!(!self.sorted, "chunked quantiles need arrival order");
        let n = self.nanos.len();
        let runs = (n / chunk).max(1);
        let sum: f64 = (0..runs)
            .map(|i| {
                let mut run = Samples {
                    nanos: self.nanos[i * n / runs..(i + 1) * n / runs].to_vec(),
                    sorted: false,
                };
                run.quantile(q)
            })
            .sum();
        sum / runs as f64
    }

    /// Samples strictly beyond the `q` quantile.
    pub fn beyond(&mut self, q: f64) -> usize {
        let v = self.quantile(q) as u64;
        self.nanos.iter().filter(|&&n| n > v).count()
    }
}

/// The first wrong answer any thread saw. A wrong answer fails the whole
/// run; loops poll [`Checker::failed`] to stop early.
#[derive(Debug, Default)]
pub struct Checker {
    bad: AtomicBool,
    first: Mutex<Option<String>>,
}

impl Checker {
    pub fn wrong(&self, msg: String) {
        let mut first = self.first.lock().expect("checker lock poisoned");
        if first.is_none() {
            *first = Some(msg);
        }
        self.bad.store(true, Ordering::SeqCst);
    }

    pub fn check(&self, verdict: Result<(), String>) {
        if let Err(msg) = verdict {
            self.wrong(msg);
        }
    }

    pub fn failed(&self) -> bool {
        self.bad.load(Ordering::SeqCst)
    }

    pub fn first(&self) -> Option<String> {
        self.first.lock().expect("checker lock poisoned").clone()
    }
}

/// Operations attempted and failed with an engine error.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

impl OpCount {
    pub fn add(&mut self, other: OpCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one attempt; an engine error counts as a failure and yields
    /// `None`.
    pub fn note<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("operation failed: {e}");
                }
                None
            }
        }
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: OpCount,
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics printed in the table but left out of the result line.
    printed: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// A metric for people only: printed in the table, not in the result.
    pub fn printed(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push((name.to_owned(), value, unit));
    }

    /// A line printed with the result but not part of it (sample counts,
    /// generator lateness).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the human-readable table, the stamp, and the result line.
    pub fn print(&self, stamp: &str, wrong: Option<String>) {
        for n in &self.notes {
            println!("# {n}");
        }
        let failed_share = self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        let failed = ("failed_op_share".to_owned(), failed_share, "share");
        let table = std::iter::once(&failed)
            .chain(&self.printed)
            .chain(&self.metrics);
        for (name, value, unit) in table {
            println!("# {name:<48} {value:>16.6} {unit}");
        }
        println!("# stamp {stamp}");
        if let Some(msg) = &wrong {
            eprintln!("WRONG ANSWER: {msg}");
        }
        // A run with a wrong answer measured nothing worth comparing.
        let shown = if wrong.is_none() {
            &self.metrics[..]
        } else {
            &[]
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            wrong.is_none(),
            self.ops.attempted.max(1),
            self.ops.failed,
            metrics.join(", ")
        );
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
